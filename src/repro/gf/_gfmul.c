/* Bit-sliced GF(2^p) matrix product, p <= 32, for repro.gf.bitmatmul.
 *
 * Compiled at runtime by repro.native (plain cc, no build system) and
 * loaded through ctypes.  The contract is a product over GF(2): with
 * G[(i,rr), (j,b)] = bit rr of prods[i][j][b], the bit-planes of out are
 * G times the bit-planes of src.  bitmatmul.py fills prods with
 * C_ij * y^b, which makes that the field product C @ src, and fuzzes the
 * GF(2) contract at load time; any difference refuses the library.
 *
 * Same plan as the numpy body of bit_matmul (packed generator, column
 * blocks, four-Russians tables by doubling, gather + XOR, unpack), laid
 * out for the cache instead of for numpy calls:
 *
 *  - a column block is 512 symbols, so a bit-row of the block is 8 words:
 *    one cache line, and the 256-entry table of one group of eight inner
 *    bit-rows is 16 KiB;
 *  - the gather takes four groups per pass, bit-row-inner over at most
 *    256 output bit-rows: each accumulator line is loaded and stored
 *    once per four table rows, and groups past the last one read the
 *    zero line, so there is one gather loop and no remainder;
 *  - symbols <-> bit-planes is a 32x32 bit-matrix transpose on 64-bit
 *    words that each hold two adjacent symbols, 8 words abreast.  That
 *    permutes the columns inside a block, which a column-wise map cannot
 *    see, and packing and unpacking are the same involution;
 *  - more than 512 inner bit-rows are taken in chunks of 64 groups (1 MiB
 *    of tables) whose partial products XOR into out, so scratch does not
 *    grow with n;
 *  - every line is loaded, combined and stored as vec_t, one vector as
 *    wide as the target has, never through a local copy: a line stored
 *    at one width and reloaded at another stalls store forwarding (gcc
 *    12's -march=sapphirerapids copies 64 bytes at 512 bits but
 *    vectorises loops at 256, which made that build the slowest one).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__AVX512F__)
#define VEC_BYTES 64
#elif defined(__AVX__)
#define VEC_BYTES 32
#else
#define VEC_BYTES 16
#endif

#define LANES 8                  /* 64-bit words per bit-row of a column block */
#define VECS (8 * LANES / VEC_BYTES)
#define BLOCK_COLS (32 * 2 * LANES)
#define ROW_BLOCK 256            /* output bit-rows gathered per pass */
#define GROUP_CHUNK 64           /* groups of eight inner bit-rows tabulated at once */

typedef uint64_t vec_t __attribute__((vector_size(VEC_BYTES)));
typedef vec_t line_t[VECS];
typedef uint32_t sym_t __attribute__((may_alias));

static const uint8_t zero_idx[ROW_BLOCK];

/* The vector width this build works lines at, in bytes. */
int repro_gf2_vector_bytes(void)
{
    return VEC_BYTES;
}

/* n lines from src, or zero lines when src is NULL. */
static inline void copy_lines(line_t *dst, const line_t *src, int64_t n)
{
    for (int64_t k = 0; k < n; k++) {
        for (int v = 0; v < VECS; v++) {
            dst[k][v] = src == NULL ? (vec_t){0} : src[k][v];
        }
    }
}

/* One round of the transpose network: swap the off-diagonal j x j
 * blocks of every 2j x 2j block (LSB-first). */
static inline void swap_round(line_t *x, const int j, const uint64_t mask)
{
    for (int k0 = 0; k0 < 32; k0 += 2 * j) {
        for (int k = k0; k < k0 + j; k++) {
            for (int v = 0; v < VECS; v++) {
                const vec_t t = ((x[k][v] >> j) ^ x[k + j][v]) & mask;
                x[k][v] ^= t << j;
                x[k + j][v] ^= t;
            }
        }
    }
}

/* Transpose, in every 32-bit half of every lane, the 32x32 bit matrix
 * whose row s is x[s]: afterwards bit s of x[b] is what bit b of x[s]
 * was. */
static void transpose32(line_t *x)
{
    swap_round(x, 16, 0x0000FFFF0000FFFFULL);
    swap_round(x, 8, 0x00FF00FF00FF00FFULL);
    swap_round(x, 4, 0x0F0F0F0F0F0F0F0FULL);
    swap_round(x, 2, 0x3333333333333333ULL);
    swap_round(x, 1, 0x5555555555555555ULL);
}

/* 8x8 bit-matrix transpose: bit u of byte c becomes bit c of byte u. */
static uint64_t transpose8(uint64_t x)
{
    uint64_t t;
    t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
    x ^= t ^ (t << 28);
    return x;
}

/* gen[g][(i,rr)] = the byte whose bit u is bit rr of prods[i][8g + u]:
 * the table index of output bit-row (i,rr) in group g. */
static void build_generator(const uint32_t *prods, int64_t r, int64_t inner,
                            int64_t p, int64_t ngroups, uint8_t *gen)
{
    for (int64_t i = 0; i < r; i++) {
        const uint32_t *row = prods + i * inner;
        for (int64_t g = 0; g < ngroups; g++) {
            uint32_t v[8] = {0};
            uint8_t *dst = gen + (g * r + i) * p;
            for (int64_t u = 0; u < 8 && 8 * g + u < inner; u++) {
                v[u] = row[8 * g + u];
            }
            for (int64_t first = 0; first < p; first += 8) {
                uint64_t x = 0;
                for (int u = 0; u < 8; u++) {
                    x |= (uint64_t)((v[u] >> first) & 0xFF) << (8 * u);
                }
                x = transpose8(x);
                for (int64_t rr = first; rr < p && rr < first + 8; rr++) {
                    dst[rr] = (uint8_t)(x >> (8 * (rr - first)));
                }
            }
        }
    }
}

static size_t round64(size_t bytes)
{
    return (bytes + 63) & ~(size_t)63;
}

/* out (r, m) = G @ src (n, m) over GF(2) bit-planes, G from prods
 * (r, n, p); all uint32, C-contiguous, symbols < 2^p.  Returns nonzero
 * only when scratch cannot be allocated. */
int repro_gf2_matmul(const uint32_t *prods, const uint32_t *src, uint32_t *out,
                     int64_t r, int64_t n, int64_t m, int64_t p)
{
    const int64_t inner = n * p;
    const int64_t ngroups = (inner + 7) / 8;
    const int64_t chunk = ngroups < GROUP_CHUNK ? ngroups : GROUP_CHUNK;
    const int64_t block_rows = ROW_BLOCK / p;  /* whole symbol rows */

    const size_t gen_bytes = round64((size_t)(ngroups * r * p));
    const size_t tab_bytes = (size_t)chunk * 256 * sizeof(line_t);
    const size_t bits_bytes = (size_t)chunk * 8 * sizeof(line_t);
    const size_t acc_bytes = ROW_BLOCK * sizeof(line_t);
    const size_t x_bytes = 32 * sizeof(line_t);
    char *raw = malloc(gen_bytes + tab_bytes + bits_bytes + acc_bytes + x_bytes + 63);
    if (raw == NULL) {
        return 1;
    }
    /* Table rows are cache lines only if the scratch is line-aligned. */
    char *base = raw + (-(uintptr_t)raw & 63);
    uint8_t *gen = (uint8_t *)base;
    line_t *tables = (line_t *)(base + gen_bytes);
    line_t *bits = (line_t *)(base + gen_bytes + tab_bytes);
    line_t *acc = (line_t *)(base + gen_bytes + tab_bytes + bits_bytes);
    line_t *x = (line_t *)(base + gen_bytes + tab_bytes + bits_bytes + acc_bytes);

    build_generator(prods, r, inner, p, ngroups, gen);

    for (int64_t g0 = 0; g0 < ngroups; g0 += chunk) {
        const int64_t gn = ngroups - g0 < chunk ? ngroups - g0 : chunk;
        const int64_t t0 = 8 * g0;
        const int64_t t1 = t0 + 8 * gn < inner ? t0 + 8 * gn : inner;

        for (int64_t c0 = 0; c0 < m; c0 += BLOCK_COLS) {
            const int64_t cols = m - c0 < BLOCK_COLS ? m - c0 : BLOCK_COLS;
            const size_t col_bytes = (size_t)cols * sizeof(uint32_t);

            /* Pack: inner bit-rows t0..t1 of this column block, the last
             * group zero-padded to eight. */
            copy_lines(bits + (t1 - t0), NULL, 8 * gn - (t1 - t0));
            for (int64_t j = t0 / p; j * p < t1; j++) {
                memcpy(x, src + j * m + c0, col_bytes);
                memset((char *)x + col_bytes, 0, x_bytes - col_bytes);
                transpose32(x);
                for (int64_t b = 0; b < p; b++) {
                    const int64_t t = j * p + b;
                    if (t >= t0 && t < t1) {
                        copy_lines(bits + (t - t0), x + b, 1);
                    }
                }
            }

            /* Tables by doubling: entry e is the XOR of the group's
             * bit-rows selected by the bits of e. */
            for (int64_t g = 0; g < gn; g++) {
                line_t *tab = tables + g * 256;
                copy_lines(tab, NULL, 1);
                for (int b = 0; b < 8; b++) {
                    for (int e = 0; e < (1 << b); e++) {
                        for (int v = 0; v < VECS; v++) {
                            tab[(1 << b) + e][v] = tab[e][v] ^ bits[8 * g + b][v];
                        }
                    }
                }
            }

            for (int64_t i0 = 0; i0 < r; i0 += block_rows) {
                const int64_t in = r - i0 < block_rows ? r - i0 : block_rows;
                const int64_t nrows = in * p;

                /* Gather: a pass XORs four groups' table rows into
                 * each accumulator line.  Groups past the last read
                 * entry 0 of table 0, the zero line. */
                copy_lines(acc, NULL, nrows);
                for (int64_t g = 0; g < gn; g += 4) {
                    const line_t *tab[4];
                    const uint8_t *idx[4];
                    for (int u = 0; u < 4; u++) {
                        tab[u] = tables + (g + u < gn ? g + u : 0) * 256;
                        idx[u] = g + u < gn ? gen + ((g0 + g + u) * r + i0) * p : zero_idx;
                    }
                    for (int64_t row = 0; row < nrows; row++) {
                        const vec_t *a = tab[0][idx[0][row]], *b = tab[1][idx[1][row]];
                        const vec_t *c = tab[2][idx[2][row]], *d = tab[3][idx[3][row]];
                        for (int v = 0; v < VECS; v++) {
                            acc[row][v] ^= (a[v] ^ b[v]) ^ (c[v] ^ d[v]);
                        }
                    }
                }

                /* Unpack each symbol row's p bit-rows into out; later
                 * chunks of inner bits add to what the first one wrote. */
                for (int64_t i = 0; i < in; i++) {
                    uint32_t *dst = out + (i0 + i) * m + c0;
                    copy_lines(x, acc + i * p, p);
                    copy_lines(x + p, NULL, 32 - p);
                    transpose32(x);
                    if (g0 == 0) {
                        memcpy(dst, x, col_bytes);
                    }
                    else {
                        const sym_t *sym = (const sym_t *)x;
                        for (int64_t c = 0; c < cols; c++) {
                            dst[c] ^= sym[c];
                        }
                    }
                }
            }
        }
    }
    free(raw);
    return 0;
}
