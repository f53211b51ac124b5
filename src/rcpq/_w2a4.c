/* Compiled fast path of rcpq.gemv.gemv_fast: exact integer row sums.
 *
 * A finite float16 LUT entry is an integer number of units 2^-24, below
 * 2^40 in magnitude, and activation codes are integers in [-8, 7]. So row
 * h's sum S_h = sum_c units(h, c) * code(c) is an exact int64 while the
 * input channels are at most 2^20. Integer sums do not depend on their
 * order: the lane width, the compiler and its flags cannot change them, and
 * they equal the sums of the numpy spec in gemv.py.
 *
 * w: (rows, groups * gsize / 4) packed 2-bit codes; lut: (rows, groups, 4)
 * float16 bit patterns; x: (groups * gsize) activation codes; sums: rows.
 * Requires gsize % 4 == 0. Returns -1, or h * groups + g for the first
 * (row h, group g) whose LUT entries hold an inf or NaN; rows from h on
 * are then left unset.
 */
#include <stdint.h>
#include <string.h>

typedef int32_t v4i __attribute__((vector_size(16)));

/* The float16 with these bits in units of 2^-24; sets *bad for inf and NaN. */
static int64_t units(uint16_t bits, int *bad)
{
    int64_t e = (bits >> 10) & 31, m = bits & 1023;
    int64_t u = e ? (m | 1024) << (e - 1) : m;
    *bad |= e == 31;
    return bits >> 15 ? -u : u;
}

int64_t rcpq_w2a4_gemv(const uint8_t *w, const uint16_t *lut, const int32_t *x,
                       int64_t rows, int64_t groups, int64_t gsize, int64_t *sums)
{
    /* mask[b][k] lane j is -1 where code j of byte b equals k, else 0 */
    v4i mask[256][4];
    for (int b = 0; b < 256; b++)
        for (int k = 0; k < 4; k++)
            for (int j = 0; j < 4; j++)
                mask[b][k][j] = -(((b >> (6 - 2 * j)) & 3) == k);

    for (int64_t h = 0; h < rows; h++) {
        int64_t s = 0;
        for (int64_t g = 0; g < groups; g++) {
            const uint8_t *b = w + (h * groups + g) * (gsize / 4);
            const int32_t *xg = x + g * gsize;
            const uint16_t *l = lut + (h * groups + g) * 4;
            v4i bucket[4] = {{0}};
            for (int64_t i = 0; i < gsize / 4; i++) {
                v4i xi;
                memcpy(&xi, xg + 4 * i, sizeof xi);
                for (int k = 0; k < 4; k++)
                    bucket[k] += mask[b[i]][k] & xi;
            }
            int bad = 0;
            for (int k = 0; k < 4; k++)
                s += units(l[k], &bad) * (bucket[k][0] + bucket[k][1] + bucket[k][2] + bucket[k][3]);
            if (bad)
                return h * groups + g;
        }
        sums[h] = s;
    }
    return -1;
}
