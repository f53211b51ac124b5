/* Compiled fast path of rcpq.gemv.gemv_fast.
 *
 * Each float operation mirrors one numpy operation of the tile loop in
 * gemv.py (_decode_rows, _tree_sum), in the same order, so the output is
 * bit-identical to it. Build with -ffp-contract=off and without -ffast-math:
 * a fused multiply-add or a reassociated sum would round differently.
 *
 * w: (rows, groups * gsize / 4) packed 2-bit codes; lut: (rows, groups, 4);
 * xv: (groups * gsize) decoded activations; partial: width floats of
 * scratch, width the least power of two >= groups; out: rows floats.
 * Requires gsize % 8 == 0 and gsize <= 128. There numpy's float32 pairwise
 * sum of a group keeps eight running sums, lanes lo[0..3] and hi[0..3] here,
 * joined by a fixed tree.
 */
#include <stdint.h>
#include <string.h>

typedef float v4f __attribute__((vector_size(16)));

static v4f load4(const float *p)
{
    v4f v;
    memcpy(&v, p, sizeof v);
    return v;
}

void rcpq_w2a4_gemv(const uint8_t *w, const float *lut, const float *xv,
                    int64_t rows, int64_t groups, int64_t gsize, int64_t width,
                    float *partial, float *out)
{
    /* mask[b][k] lane j is (float)(code j of byte b == k): 1.0f or 0.0f */
    v4f mask[256][4];
    for (int b = 0; b < 256; b++)
        for (int k = 0; k < 4; k++)
            for (int j = 0; j < 4; j++)
                mask[b][k][j] = (float)(((b >> (6 - 2 * j)) & 3) == k);

    for (int64_t h = 0; h < rows; h++) {
        for (int64_t g = 0; g < groups; g++) {
            const uint8_t *b = w + (h * groups + g) * (gsize / 4);
            const float *x = xv + g * gsize;
            const float *l = lut + (h * groups + g) * 4;
            v4f lo[4], hi[4];
            for (int k = 0; k < 4; k++) {
                lo[k] = mask[b[0]][k] * load4(x);
                hi[k] = mask[b[1]][k] * load4(x + 4);
            }
            for (int64_t i = 8; i < gsize; i += 8) {
                v4f xl = load4(x + i), xh = load4(x + i + 4);
                const v4f *ml = mask[b[i / 4]], *mh = mask[b[i / 4 + 1]];
                for (int k = 0; k < 4; k++) {
                    lo[k] += ml[k] * xl;
                    hi[k] += mh[k] * xh;
                }
            }
            float p = 0.0f;
            for (int k = 0; k < 4; k++) {
                float bucket = ((lo[k][0] + lo[k][1]) + (lo[k][2] + lo[k][3]))
                             + ((hi[k][0] + hi[k][1]) + (hi[k][2] + hi[k][3]));
                p = p + l[k] * bucket;
            }
            partial[g] = p;
        }
        for (int64_t g = groups; g < width; g++)
            partial[g] = 0.0f;
        for (int64_t half = width / 2; half >= 1; half /= 2)
            for (int64_t i = 0; i < half; i++)
                partial[i] = partial[i] + partial[i + half];
        out[h] = partial[0];
    }
}
