/* Compiled fast path of rcpq.gemv.gemv_fast: exact integer row sums, AVX2.
 *
 * A finite float16 LUT entry is an integer number of units 2^-24, below
 * 2^40 in magnitude, and activation codes are integers in [-8, 7]. So row
 * h's sum S_h = sum_c units(h, c) * code(c) is an exact int64 while the
 * input channels are at most 2^20. Integer sums do not depend on their
 * order: the lane width, the compiler and its flags cannot change them, and
 * they equal the sums of the numpy spec in gemv.py.
 *
 * Table lookup (T-MAC, arXiv 2407.00088). Call 4 consecutive channels a
 * block. Bit p of a row's four weight codes in a block forms a nibble, bit
 * k from channel k: plane p. Per token, each block gets a 16-entry int8
 * table, T[m] = the sum of the activation codes of the channels whose bit
 * is set in m, so |T[m]| <= 32. Summed over a group's blocks, T[nibble]
 * gives S0 and S1, the sums of the activation codes where bit 0, resp. bit
 * 1, of the weight code is set, and T[plane 0 & plane 1] gives S3, where
 * both are. The bucket sums of codes per weight code k are then B3 = S3,
 * B1 = S0 - S3, B2 = S1 - S3 and B0 = total - S0 - S1 + S3, and the row
 * adds sum_k units(lut[k]) * B_k in int64.
 *
 * Units (built in numpy by rcpq.gemv, at a LUT's first call): a finite
 * float16 is +-mant << shift units, with mant < 2^11, so each product is
 * one 32x32-bit multiply and a shift. Each LUT entry is stored as the int32
 * smant << 8 | shift. Per tile, group, row set s = 0..3 and i = 0..3 come
 * 8 of them: buckets 0-3 of the tile's row r = 16 (s / 2) + s % 2 + 2 i,
 * then those of row r + 8. So one 8-lane load gives the entries that the
 * combine multiplies by one vector of bucket sums. Padding rows hold 0. A
 * LUT that holds an inf or NaN builds no units, and gemv.py runs its spec.
 *
 * Tiles (built by rcpq_w2a4_tiles, at the end of this file, at the weights'
 * first call): rows in tiles of 32, the last padded with rows of zero
 * codes. A group's blocks are taken in pairs, and a group of an odd number
 * of blocks ends with a zero block, whose table is zero too. Per tile,
 * group and pair, 64 bytes: plane 0 of the pair's first block, of its
 * second, then plane 1 of each, 16 bytes each, where byte i holds row i's
 * nibble in its low half and row i + 16's in its high half. So one pshufb
 * looks up 16 rows' nibbles of two blocks in their two tables, one per
 * 128-bit lane.
 *
 * Widening: an int8 lane adds the lookups of 4 pairs (|sum| <= 128), an
 * int16 lane those of at most SPAN pairs, then int32 lanes take a group's
 * plane sums (|S| <= 8 * gsize <= 2^23). So no lane wraps up to 2^20
 * channels.
 *
 * tiles and units, the weights and the LUT in those layouts; xp, the
 * groups * gsize / 2 packed activation bytes, code 2i in the high nibble
 * of byte i; table, 8 * groups * gsize bytes of scratch; total, groups
 * int64 of scratch; sums, rows out. Requires gsize % 4 == 0 and an AVX2 CPU
 * (rcpq_has_avx2); gemv.py runs its numpy spec everywhere else, and checks
 * every size and dtype before it passes these pointers. Returns 0.
 */
#include <immintrin.h>
#include <stdint.h>

#define TILE 32
/* A pair adds at most 32 to an int16 lane: take the lookups of at most
 * SPAN pairs, 2^14 in magnitude, before widening to int32. */
#define SPAN 512

int rcpq_has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

static int64_t pairs_of(int64_t gsize)
{
    return (gsize / 4 + 1) / 2;
}

/* The per-token tables, 16 bytes per block of each group's pairs, and each group's sum of codes. */
__attribute__((target("avx2"))) static void build_tables(const int8_t *xp, int64_t groups, int64_t gsize,
                                                         int8_t *table, int64_t *total)
{
    const int64_t blocks = gsize / 4, pairs = pairs_of(gsize);
    /* byte m of bit[k] is -1 where bit k of m is set */
    const __m128i index = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    __m128i bit[4];
    for (int k = 0; k < 4; k++) {
        const __m128i b = _mm_set1_epi8((char)(1 << k));
        bit[k] = _mm_cmpeq_epi8(_mm_and_si128(index, b), b);
    }
    for (int64_t g = 0; g < groups; g++) {
        int64_t sum = 0;
        for (int64_t q = 0; q < 2 * pairs; q++) {
            __m128i t = _mm_setzero_si128();
            if (q < blocks) {
                const uint8_t *b = (const uint8_t *)xp + (g * blocks + q) * 2;
                const unsigned nib[4] = {b[0] >> 4u, b[0] & 15u, b[1] >> 4u, b[1] & 15u};
                for (int k = 0; k < 4; k++) {
                    const int code = (int)nib[k] - (int)(nib[k] & 8) * 2; /* two's complement nibble */
                    sum += code;
                    t = _mm_add_epi8(t, _mm_and_si128(bit[k], _mm_set1_epi8((char)code)));
                }
            }
            _mm_storeu_si128((__m128i *)(table + (g * 2 * pairs + q) * 16), t);
        }
        total[g] = sum;
    }
}

/* Sign-extended even and odd int8 lanes of v, added to int16 lanes e and o. */
__attribute__((target("avx2"))) static inline void widen(__m256i v, __m256i *e, __m256i *o)
{
    *e = _mm256_add_epi16(*e, _mm256_srai_epi16(_mm256_slli_epi16(v, 8), 8));
    *o = _mm256_add_epi16(*o, _mm256_srai_epi16(v, 8));
}

/* Adds one pair's lookups to the int8 lanes a: planes 0, 1 and both, each for rows 0-15, then 16-31. */
__attribute__((target("avx2"))) static inline void lookup(const uint8_t *wp, const int8_t *tp, __m256i a[6])
{
    const __m256i low = _mm256_set1_epi8(0x0f);
    const __m256i t = _mm256_loadu_si256((const __m256i *)tp);
    const __m256i p0 = _mm256_loadu_si256((const __m256i *)wp), p1 = _mm256_loadu_si256((const __m256i *)(wp + 32));
    const __m256i p0l = _mm256_and_si256(p0, low), p0h = _mm256_and_si256(_mm256_srli_epi16(p0, 4), low);
    const __m256i p1l = _mm256_and_si256(p1, low), p1h = _mm256_and_si256(_mm256_srli_epi16(p1, 4), low);
    a[0] = _mm256_add_epi8(a[0], _mm256_shuffle_epi8(t, p0l));
    a[1] = _mm256_add_epi8(a[1], _mm256_shuffle_epi8(t, p0h));
    a[2] = _mm256_add_epi8(a[2], _mm256_shuffle_epi8(t, p1l));
    a[3] = _mm256_add_epi8(a[3], _mm256_shuffle_epi8(t, p1h));
    a[4] = _mm256_add_epi8(a[4], _mm256_shuffle_epi8(t, _mm256_and_si256(p0l, p1l)));
    a[5] = _mm256_add_epi8(a[5], _mm256_shuffle_epi8(t, _mm256_and_si256(p0h, p1h)));
}

__attribute__((target("avx2"))) int64_t rcpq_w2a4_gemv(const uint8_t *tiles, const int32_t *units, const int8_t *xp,
                                                       int8_t *table, int64_t *total, int64_t rows,
                                                       int64_t groups, int64_t gsize, int64_t *sums)
{
    const int64_t pairs = pairs_of(gsize);
    const __m256i zero = _mm256_setzero_si256(), low8 = _mm256_set1_epi64x(0xff);
    build_tables(xp, groups, gsize, table, total);
    for (int64_t r0 = 0; r0 < rows; r0 += TILE) {
        /* int64 lanes per row pair (r, r + 8): buckets 0 + 1 and 2 + 3 of each */
        __m256i acc[16];
        for (int i = 0; i < 16; i++)
            acc[i] = zero;
        for (int64_t g = 0; g < groups; g++) {
            const uint8_t *wg = tiles + (r0 / TILE * groups + g) * pairs * 64;
            const int8_t *tg = table + g * pairs * 32;
            const int32_t *ug = units + (r0 / TILE * groups + g) * TILE * 4;
            /* int32 plane sums: s[2 * (2 * plane + half) + parity] holds rows 16 half + 2 i + parity, i = 0..7 */
            __m256i s[12];
            for (int i = 0; i < 12; i++)
                s[i] = zero;
            for (int64_t p0 = 0; p0 < pairs; p0 += SPAN) {
                const int64_t p1 = p0 + SPAN < pairs ? p0 + SPAN : pairs;
                __m256i e[6], o[6]; /* int16: even and odd rows of a[i] */
                for (int i = 0; i < 6; i++)
                    e[i] = o[i] = zero;
                for (int64_t p = p0; p < p1; p += 4) {
                    __m256i a[6] = {zero, zero, zero, zero, zero, zero};
                    if (p + 4 <= p1)
                        for (int k = 0; k < 4; k++)
                            lookup(wg + (p + k) * 64, tg + (p + k) * 32, a);
                    else
                        for (int64_t k = p; k < p1; k++)
                            lookup(wg + k * 64, tg + k * 32, a);
                    for (int i = 0; i < 6; i++)
                        widen(a[i], &e[i], &o[i]);
                }
                /* the two lanes hold a pair's two blocks of the same rows */
                for (int i = 0; i < 6; i++) {
                    s[2 * i] = _mm256_add_epi32(s[2 * i], _mm256_add_epi32(
                        _mm256_cvtepi16_epi32(_mm256_castsi256_si128(e[i])),
                        _mm256_cvtepi16_epi32(_mm256_extracti128_si256(e[i], 1))));
                    s[2 * i + 1] = _mm256_add_epi32(s[2 * i + 1], _mm256_add_epi32(
                        _mm256_cvtepi16_epi32(_mm256_castsi256_si128(o[i])),
                        _mm256_cvtepi16_epi32(_mm256_extracti128_si256(o[i], 1))));
                }
            }
            const __m256i tot = _mm256_set1_epi32((int32_t)total[g]);
            for (int set = 0; set < 4; set++) { /* rows 16 half + parity + 2 i, set = 2 half + parity */
                const __m256i s0 = s[set], s1 = s[4 + set], s3 = s[8 + set];
                const __m256i b1 = _mm256_sub_epi32(s0, s3), b2 = _mm256_sub_epi32(s1, s3);
                const __m256i b0 = _mm256_sub_epi32(tot, _mm256_add_epi32(_mm256_add_epi32(b1, b2), s3));
                /* to (row, bucket) lanes: b[i] holds rows of lanes i and i + 4, buckets 0-3 each */
                const __m256i t0 = _mm256_unpacklo_epi32(b0, b1), t1 = _mm256_unpackhi_epi32(b0, b1);
                const __m256i t2 = _mm256_unpacklo_epi32(b2, s3), t3 = _mm256_unpackhi_epi32(b2, s3);
                const __m256i b[4] = {_mm256_unpacklo_epi64(t0, t2), _mm256_unpackhi_epi64(t0, t2),
                                      _mm256_unpacklo_epi64(t1, t3), _mm256_unpackhi_epi64(t1, t3)};
                for (int i = 0; i < 4; i++) {
                    const __m256i u = _mm256_loadu_si256((const __m256i *)(ug + (4 * set + i) * 8));
                    const __m256i smant = _mm256_srai_epi32(u, 8);
                    const __m256i even = _mm256_sllv_epi64(_mm256_mul_epi32(smant, b[i]), _mm256_and_si256(u, low8));
                    const __m256i odd = _mm256_sllv_epi64(
                        _mm256_mul_epi32(_mm256_srli_epi64(smant, 32), _mm256_srli_epi64(b[i], 32)),
                        _mm256_and_si256(_mm256_srli_epi64(u, 32), low8));
                    acc[4 * set + i] = _mm256_add_epi64(acc[4 * set + i], _mm256_add_epi64(even, odd));
                }
            }
        }
        for (int set = 0; set < 4; set++)
            for (int i = 0; i < 4; i++) {
                const int64_t ra = r0 + 16 * (set / 2) + set % 2 + 2 * i, rb = ra + 8;
                int64_t lanes[4];
                _mm256_storeu_si256((__m256i *)lanes, acc[4 * set + i]);
                if (ra < rows)
                    sums[ra] = lanes[0] + lanes[1];
                if (rb < rows)
                    sums[rb] = lanes[2] + lanes[3];
            }
    }
    return 0;
}

/* Plane p of the byte b of four codes: bit k is bit p of code k. */
static uint8_t nibble(unsigned b, int p)
{
    return (b >> (6 + p) & 1) | (b >> (4 + p) & 1) << 1 | (b >> (2 + p) & 1) << 2 | (b >> p & 1) << 3;
}

/* The repack of packed codes into the tiles above. Plain C.
 *
 * w: (rows, groups * gsize / 4) packed codes, code j of a byte in bits
 * 7-2j and 6-2j; tiles: ceil(rows / 32) * groups * pairs * 64 bytes out.
 * Requires gsize % 4 == 0. Returns 0.
 */
int64_t rcpq_w2a4_tiles(const uint8_t *w, int64_t rows, int64_t groups, int64_t gsize, uint8_t *tiles)
{
    const int64_t blocks = gsize / 4, pairs = pairs_of(gsize), stride = groups * blocks;
    uint8_t planes[256][2];
    for (unsigned b = 0; b < 256; b++)
        for (int p = 0; p < 2; p++)
            planes[b][p] = nibble(b, p);
    for (int64_t r0 = 0; r0 < rows; r0 += TILE)
        for (int64_t g = 0; g < groups; g++)
            for (int64_t q = 0; q < 2 * pairs; q++) { /* the group's block q; past blocks, padding */
                uint8_t *out = tiles + ((r0 / TILE * groups + g) * pairs + q / 2) * 64 + q % 2 * 16;
                const uint8_t *col = w + g * blocks + q;
                for (int64_t i = 0; i < 16; i++) {
                    unsigned lo = q < blocks && r0 + i < rows ? col[(r0 + i) * stride] : 0;
                    unsigned hi = q < blocks && r0 + i + 16 < rows ? col[(r0 + i + 16) * stride] : 0;
                    out[i] = planes[lo][0] | planes[hi][0] << 4;
                    out[32 + i] = planes[lo][1] | planes[hi][1] << 4;
                }
            }
    return 0;
}
