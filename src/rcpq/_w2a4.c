/* Compiled fast path of rcpq.gemv.gemv_fast: exact integer row sums, AVX2.
 *
 * A finite float16 LUT entry is an integer number of units 2^-24, below
 * 2^40 in magnitude, and activation codes are integers in [-8, 7]. So row
 * h's sum S_h = sum_c units(h, c) * code(c) is an exact int64 while the
 * input channels are at most 2^20. Integer sums do not depend on their
 * order: the lane width, the compiler and its flags cannot change them, and
 * they equal the sums of the numpy spec in gemv.py.
 *
 * Bit planes (T-MAC, arXiv 2407.00088): per (row, group), S0 and S1 are the
 * sums of the activation codes where bit 0, resp. bit 1, of the weight code
 * is set, and S3 where both are. Each is a dot product of a 0/1 byte mask
 * with the codes (_mm256_maddubs_epi16). The bucket sums of codes per
 * weight code k are then B3 = S3, B1 = S0 - S3, B2 = S1 - S3 and
 * B0 = total - S0 - S1 + S3, and the group adds sum_k units(lut[k]) * B_k
 * in int64 lanes: a finite float16 is +-mant << shift units, with
 * mant < 2^11, so each product is one 32x32-bit multiply and a shift.
 *
 * A group is gsize / 128 chunks of 128 channels, read in 32-byte lanes,
 * then at most 4 pieces of up to 32 channels, read in the low 8 bytes of
 * 16-byte lanes; a piece's n bytes of codes are zero-padded to 8.
 *
 * w: (rows, groups * gsize / 4) packed codes, code j of a byte in bits
 * 7-2j and 6-2j; lut: (rows, groups, 4) float16 bit patterns; xp: the
 * groups * gsize activation codes in plane order, xp[o + n j + i] =
 * code(o + 4 i + j) for each chunk or piece of n bytes of codes at channel
 * o, then 8 zero bytes that a piece's loads may reach; total: each group's
 * sum of codes; sums: rows. Requires gsize % 4 == 0 and an AVX2 CPU
 * (rcpq_w2a4_has_avx2); gemv.py runs its numpy spec everywhere else.
 * Returns -1, or h * groups + g for the first (row h, group g) whose LUT
 * entries hold an inf or NaN; rows from h on are then left unset.
 */
#include <immintrin.h>
#include <stdint.h>
#include <string.h>

/* A chunk or piece adds at most 4 * 2 * 8 to an int16 lane: widen before 512. */
#define WIDEN_EVERY 256

int rcpq_w2a4_has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

/* The first group of a row's LUT with an inf or NaN entry; the row has one. */
static int64_t first_inf_nan(const uint16_t *row)
{
    int64_t i = 0;
    while ((row[i] & 0x7c00) != 0x7c00)
        i++;
    return i / 4;
}

__attribute__((target("avx2"))) int64_t rcpq_w2a4_gemv(const uint8_t *w, const uint16_t *lut, const int8_t *xp,
                                                       const int64_t *total, int64_t rows, int64_t groups,
                                                       int64_t gsize, int64_t *sums)
{
    const __m256i zero = _mm256_setzero_si256(), one8 = _mm256_set1_epi8(1), one16 = _mm256_set1_epi16(1);
    const __m128i zero_x = _mm_setzero_si128(), one8_x = _mm_set1_epi8(1), one16_x = _mm_set1_epi16(1); /* pieces */
    const __m256i exponent = _mm256_set1_epi64x(31), fraction = _mm256_set1_epi64x(1023),
                  implicit = _mm256_set1_epi64x(1024);
    for (int64_t h = 0; h < rows; h++) {
        __m256i acc = zero, inf_nan = zero; /* int64 lanes, one per weight code */
        for (int64_t g = 0; g < groups; g++) {
            const uint8_t *b = w + (h * groups + g) * (gsize / 4);
            const int8_t *xg = xp + g * gsize;
            __m256i s0 = zero, s1 = zero, s3 = zero; /* int32 lanes */
            for (int64_t k0 = 0; k0 < gsize / 128; k0 += WIDEN_EVERY) {
                __m256i a0 = zero, a1 = zero, a3 = zero; /* int16 lanes */
                int64_t k1 = k0 + WIDEN_EVERY < gsize / 128 ? k0 + WIDEN_EVERY : gsize / 128;
                for (int64_t k = k0; k < k1; k++) {
                    __m256i wk = _mm256_loadu_si256((const __m256i *)(b + 32 * k));
                    for (int j = 0; j < 4; j++) {
                        __m256i xj = _mm256_loadu_si256((const __m256i *)(xg + 128 * k + 32 * j));
                        __m256i m0 = _mm256_and_si256(_mm256_srli_epi16(wk, 6 - 2 * j), one8);
                        __m256i m1 = _mm256_and_si256(_mm256_srli_epi16(wk, 7 - 2 * j), one8);
                        a0 = _mm256_add_epi16(a0, _mm256_maddubs_epi16(m0, xj));
                        a1 = _mm256_add_epi16(a1, _mm256_maddubs_epi16(m1, xj));
                        a3 = _mm256_add_epi16(a3, _mm256_maddubs_epi16(_mm256_and_si256(m0, m1), xj));
                    }
                }
                s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(a0, one16));
                s1 = _mm256_add_epi32(s1, _mm256_madd_epi16(a1, one16));
                s3 = _mm256_add_epi32(s3, _mm256_madd_epi16(a3, one16));
            }
            __m128i q = zero_x; /* lanes (S0, S1, S3, 0) */
            if (gsize >= 128) {
                __m256i t = _mm256_hadd_epi32(_mm256_hadd_epi32(s0, s1), _mm256_hadd_epi32(s3, zero));
                q = _mm_add_epi32(_mm256_castsi256_si128(t), _mm256_extracti128_si256(t, 1));
            }
            if (gsize % 128) {
                __m128i p0 = zero_x, p1 = zero_x, p3 = zero_x; /* int16 lanes; at most 4 pieces */
                for (int64_t c = gsize / 128 * 128; c < gsize; c += 32) {
                    const int64_t n = gsize - c < 32 ? (gsize - c) / 4 : 8; /* bytes of codes */
                    uint64_t bytes = 0;
                    if (n == 8)
                        memcpy(&bytes, b + c / 4, 8);
                    else
                        for (int64_t i = 0; i < n; i++)
                            bytes |= (uint64_t)b[c / 4 + i] << 8 * i;
                    __m128i wp = _mm_cvtsi64_si128((int64_t)bytes);
                    for (int j = 0; j < 4; j++) {
                        /* lanes n..7 hold the next activation codes, and 0 masks */
                        __m128i xj = _mm_loadl_epi64((const __m128i *)(xg + c + n * j));
                        __m128i m0 = _mm_and_si128(_mm_srli_epi16(wp, 6 - 2 * j), one8_x);
                        __m128i m1 = _mm_and_si128(_mm_srli_epi16(wp, 7 - 2 * j), one8_x);
                        p0 = _mm_add_epi16(p0, _mm_maddubs_epi16(m0, xj));
                        p1 = _mm_add_epi16(p1, _mm_maddubs_epi16(m1, xj));
                        p3 = _mm_add_epi16(p3, _mm_maddubs_epi16(_mm_and_si128(m0, m1), xj));
                    }
                }
                __m128i u = _mm_hadd_epi32(_mm_madd_epi16(p0, one16_x), _mm_madd_epi16(p1, one16_x));
                q = _mm_add_epi32(q, _mm_hadd_epi32(u, _mm_hadd_epi32(_mm_madd_epi16(p3, one16_x), zero_x)));
            }
            int64_t S0 = _mm_extract_epi32(q, 0), S1 = _mm_extract_epi32(q, 1), S3 = _mm_extract_epi32(q, 2);
            __m256i bucket = _mm256_set_epi64x(S3, S1 - S3, S0 - S3, total[g] - S0 - S1 + S3);
            /* float16 bits -> +-mant << shift; subnormals have no implicit bit and shift 0 */
            __m256i bits = _mm256_cvtepu16_epi64(_mm_loadl_epi64((const __m128i *)(lut + (h * groups + g) * 4)));
            __m256i e = _mm256_and_si256(_mm256_srli_epi64(bits, 10), exponent);
            __m256i normal = _mm256_cmpgt_epi64(e, zero); /* -1 or 0 */
            __m256i mant = _mm256_or_si256(_mm256_and_si256(bits, fraction), _mm256_and_si256(normal, implicit));
            __m256i neg = _mm256_sub_epi64(zero, _mm256_srli_epi64(bits, 15));
            __m256i term = _mm256_sllv_epi64(_mm256_mul_epi32(mant, bucket), _mm256_add_epi64(e, normal));
            acc = _mm256_add_epi64(acc, _mm256_sub_epi64(_mm256_xor_si256(term, neg), neg));
            inf_nan = _mm256_or_si256(inf_nan, _mm256_cmpeq_epi64(e, exponent));
        }
        if (!_mm256_testz_si256(inf_nan, inf_nan))
            return h * groups + first_inf_nan(lut + h * groups * 4);
        __m128i r = _mm_add_epi64(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
        sums[h] = _mm_extract_epi64(r, 0) + _mm_extract_epi64(r, 1);
    }
    return -1;
}
