/* Compiled fast path of rcpq.ldp.fake_quant: the LDP encoder, one pass per group, AVX2.
 *
 * Per group of gsize doubles x, it does the IEEE double operations of the
 * numpy reference in ldp.py, in the same order:
 *   mn, mx   the group's min and max, a NaN of the group if it holds one;
 *   lo = s_lo * mn, span = s_hi * mx - lo, table[k] = lo + span * levels[k];
 *   v = (x - lo) / span, clipped to [0, 1], a NaN kept as np.clip keeps it;
 *   code = #{k : thresholds[k] <= v}, and values = table[code].
 * Each operation rounds once: the library is built with -ffp-contract=off,
 * so no multiply and add fuse into an FMA. So codes, values and table equal
 * the reference's bit for bit. Where a group's min or max is a zero, numpy
 * may return either sign; no output depends on it: lo + span * level and the
 * compares come out the same for +0 and -0. Where a group holds NaNs of
 * different bit patterns, numpy does not say which one its min returns;
 * this takes the first, so only those NaN values' payloads may differ.
 *
 * x: (groups, gsize); s_lo, s_hi: (groups,), the sigmoids of the clip
 * logits; thresholds: (groups, 3); levels: (groups, 4); codes: (groups,
 * gsize); values: (groups, gsize), or NULL for codes alone. Requires
 * gsize >= 1 and an AVX2 CPU (rcpq_has_avx2); ldp.py runs its numpy
 * reference everywhere else. Returns -1, or the first group whose
 * span <= 0; that group and the groups after it are then left unset.
 */
#include <immintrin.h>
#include <stdint.h>
#include <string.h>

int rcpq_has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

/* SPREAD[m]: byte j is bit j of the 4-bit compare mask m. */
static const uint32_t SPREAD[16] = {
    0x00000000, 0x00000001, 0x00000100, 0x00000101, 0x00010000, 0x00010001, 0x00010100, 0x00010101,
    0x01000000, 0x01000001, 0x01000100, 0x01000101, 0x01010000, 0x01010001, 0x01010100, 0x01010101,
};

/* The min and max of n values, or the first NaN among them for both. */
__attribute__((target("avx2"))) static void min_max(const double *x, int64_t n, double *mn, double *mx)
{
    __m256d lo = _mm256_set1_pd(x[0]), hi = lo, nan = _mm256_setzero_pd();
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
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
    int has_nan = !_mm256_testz_pd(nan, nan);
    for (; i < n; i++) {
        has_nan |= x[i] != x[i];
        a = x[i] < a ? x[i] : a;
        b = x[i] > b ? x[i] : b;
    }
    if (has_nan)
        for (i = 0; x[i] == x[i]; i++)
            ;
    *mn = has_nan ? x[i] : a;
    *mx = has_nan ? x[i] : b;
}

__attribute__((target("avx2"))) int64_t rcpq_ldp_encode(const double *x, int64_t groups, int64_t gsize,
                                                        const double *s_lo, const double *s_hi,
                                                        const double *thresholds, const double *levels,
                                                        uint8_t *codes, double *values)
{
    const __m256d zero = _mm256_setzero_pd(), one = _mm256_set1_pd(1.0);
    const __m256i one64 = _mm256_set1_epi64x(1);
    for (int64_t g = 0; g < groups; g++) {
        const double *xg = x + g * gsize, *t = thresholds + 3 * g;
        double mn, mx;
        min_max(xg, gsize, &mn, &mx);
        const double lo = s_lo[g] * mn;
        const double span = s_hi[g] * mx - lo;
        if (span <= 0.0)
            return g;
        double table[4];
        for (int k = 0; k < 4; k++)
            table[k] = lo + span * levels[4 * g + k];
        /* table as eight 32-bit halves: code c's double is halves 2c and 2c + 1 */
        const __m256i tab = _mm256_castpd_si256(_mm256_loadu_pd(table));
        const __m256d lo4 = _mm256_set1_pd(lo), span4 = _mm256_set1_pd(span);
        const __m256d t0 = _mm256_set1_pd(t[0]), t1 = _mm256_set1_pd(t[1]), t2 = _mm256_set1_pd(t[2]);
        uint8_t *cg = codes + g * gsize;
        double *vg = values ? values + g * gsize : NULL;
        int64_t i = 0;
        for (; i + 4 <= gsize; i += 4) {
            __m256d v = _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(xg + i), lo4), span4);
            /* max and min return their second operand when either is NaN */
            v = _mm256_min_pd(one, _mm256_max_pd(zero, v));
            __m256d m0 = _mm256_cmp_pd(v, t0, _CMP_GE_OQ), m1 = _mm256_cmp_pd(v, t1, _CMP_GE_OQ),
                    m2 = _mm256_cmp_pd(v, t2, _CMP_GE_OQ);
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
        for (; i < gsize; i++) {
            double v = (xg[i] - lo) / span;
            v = 0.0 > v ? 0.0 : v;
            v = 1.0 < v ? 1.0 : v;
            const int c = (v >= t[0]) + (v >= t[1]) + (v >= t[2]);
            cg[i] = (uint8_t)c;
            if (vg)
                vg[i] = table[c];
        }
    }
    return -1;
}
