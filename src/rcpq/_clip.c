/* Compiled fast path of rcpq.calib.grid_search_clip: each candidate's 2-bit quantization error, AVX2.
 *
 * For one group g and each clip candidate p, it does the IEEE double
 * operations of the numpy reference in calib.py (np.clip, then
 * uniform.asym_quant_dequant, then the subtraction) in the same order:
 *   c = min(max(g, lo[p]), hi[p]), a NaN of g, lo[p] or hi[p] kept, and hi[p]
 *       where lo[p] > hi[p], as np.clip;
 *   mn, mx   the min and max of c, a NaN if c holds one; span = mx - mn
 *            (clipping is monotone: they are g's min and max, clipped);
 *   step = span / 3, zero = -rint(mn / span);
 *   q = rint(c / step) + zero, clipped to [0, 3], a NaN kept;
 *   deq = (q - zero) * step, or c itself where !(span > 0);
 *   err = deq - c.
 * rint rounds half to even, as np.round does, and each operation rounds once:
 * the library is built with -ffp-contract=off, so no multiply and add fuse
 * into an FMA. numpy's clip, min and max return either sign of equal zeros,
 * varying with an element's place in their SIMD loops; err depends on none
 * of those signs. They reach err only through deq - c at deq = 0, and deq is
 * never -0: that needs a clipped q of -0 with zero = +0, but q is -0 only
 * when rint(c / step) and zero are both -0. So err equals the reference's
 * bit for bit, and span does up to the sign of a zero span. The one exception
 * is where an infinity makes a NaN (inf / inf, say) and an operation then
 * meets two NaNs: which one it returns, and so the sign bit, may differ. The
 * search rejects such a group anyway, as its scores are NaN.
 *
 * g: (gsize,); lo, hi: (cands,); err: (cands, gsize); span: (cands,).
 * Requires gsize >= 1 and an AVX2 CPU (rcpq_has_avx2); calib.py runs its
 * numpy reference everywhere else. Returns 0.
 */
#include <immintrin.h>
#include <stdint.h>

#define RINT (_MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)

int rcpq_has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

/* The min and max of n values, or the first NaN among them for both. */
static void min_max(const double *x, int64_t n, double *mn, double *mx)
{
    double a = x[0], b = x[0];
    for (int64_t i = 0; i < n; i++) {
        if (x[i] != x[i]) {
            *mn = *mx = x[i];
            return;
        }
        a = x[i] < a ? x[i] : a;
        b = x[i] > b ? x[i] : b;
    }
    *mn = a;
    *mx = b;
}

/* np.clip of one value, with bounds as rcpq_clip_errors sets them */
static double clip(double x, double l, double h)
{
    if (x != x)
        return x;
    x = x > l ? x : l;
    return x < h ? x : h;
}

/* The 4 doubles at p, or the first n of them (the rest 0) where n < 4. */
__attribute__((target("avx2"))) static inline __m256d load(const double *p, int64_t n, __m256i part)
{
    return n >= 4 ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, part);
}

__attribute__((target("avx2"))) static inline void store(double *p, __m256d v, int64_t n, __m256i part)
{
    if (n >= 4)
        _mm256_storeu_pd(p, v);
    else
        _mm256_maskstore_pd(p, part, v);
}

__attribute__((target("avx2"))) int64_t rcpq_clip_errors(const double *g, int64_t gsize, const double *lo,
                                                         const double *hi, int64_t cands, double *err,
                                                         double *span)
{
    /* the lanes of a last, partial load of gsize % 4 values */
    const __m256i part = _mm256_cmpgt_epi64(_mm256_set1_epi64x(gsize % 4), _mm256_setr_epi64x(0, 1, 2, 3));
    const __m256d zero4 = _mm256_setzero_pd(), three4 = _mm256_set1_pd(3.0);
    double g_mn, g_mx;
    min_max(g, gsize, &g_mn, &g_mx);
    for (int64_t p = 0; p < cands; p++) {
        double *e = err + p * gsize;
        double l = lo[p], h = hi[p];
        /* max and min return their second operand when either is NaN: a NaN
         * bound goes into both, so it is kept, and a NaN of g is put back */
        if (l != l)
            h = l;
        else if (h != h)
            l = h;
        const __m256d l4 = _mm256_set1_pd(l), h4 = _mm256_set1_pd(h);
        /* clipping is monotone, so the clipped group's min and max are the clipped min and max */
        const double mn = clip(g_mn, l, h), s = clip(g_mx, l, h) - mn;
        span[p] = s;
        const int quantize = s > 0.0; /* else deq = c */
        const double step = s / 3.0;
        const double z = -_mm_cvtsd_f64(_mm_round_sd(_mm_setzero_pd(), _mm_set_sd(mn / s), RINT));
        const __m256d step4 = _mm256_set1_pd(step), z4 = _mm256_set1_pd(z);
        for (int64_t i = 0; i < gsize; i += 4) {
            const int64_t n = gsize - i;
            const __m256d x = load(g + i, n, part);
            const __m256d c = _mm256_blendv_pd(_mm256_min_pd(_mm256_max_pd(x, l4), h4), x,
                                               _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
            __m256d deq = c;
            if (quantize) {
                __m256d q = _mm256_add_pd(_mm256_round_pd(_mm256_div_pd(c, step4), RINT), z4);
                q = _mm256_min_pd(three4, _mm256_max_pd(zero4, q));
                deq = _mm256_mul_pd(_mm256_sub_pd(q, z4), step4);
            }
            store(e + i, _mm256_sub_pd(deq, c), n, part);
        }
    }
    return 0;
}
