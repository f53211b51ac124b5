/* Load-time repack of rcpq.pack.PackedWeights into the tiles of the GEMV
 * kernel in _w2a4.c, whose header describes the layout: rows in tiles of
 * 32, the last padded with rows of zero codes; per tile, group and pair of
 * 4-channel blocks, 64 bytes of bit-plane nibbles, a group of an odd number
 * of blocks ending with a zero block. Plain C, so that the first
 * PackedWeights of a process compiles this file alone (~0.1 s), not the
 * kernel and its intrinsics headers.
 *
 * w: (rows, groups * gsize / 4) packed codes, code j of a byte in bits
 * 7-2j and 6-2j; tiles: ceil(rows / 32) * groups * pairs * 64 bytes out,
 * where pairs = (gsize / 4 + 1) / 2. Requires gsize % 4 == 0. The AVX2
 * probe is here too: the tiles serve only the AVX2 kernel, and so do the
 * LUT's units, which rcpq.pack.DequantLut builds in numpy under this probe,
 * so that making a LUT never compiles the kernel (~1 s).
 */
#include <stdint.h>

#define TILE 32

int rcpq_has_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

static int64_t pairs_of(int64_t gsize)
{
    return (gsize / 4 + 1) / 2;
}

/* Plane p of the byte b of four codes: bit k is bit p of code k. */
static uint8_t nibble(unsigned b, int p)
{
    return (b >> (6 + p) & 1) | (b >> (4 + p) & 1) << 1 | (b >> (2 + p) & 1) << 2 | (b >> p & 1) << 3;
}

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
