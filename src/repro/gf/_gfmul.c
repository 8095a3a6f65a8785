/* Native kernels of repro.gf: the bit-sliced GF(2^p) matrix product
 * (p <= 32) behind repro.gf.bitmatmul, and Gauss-Jordan elimination over
 * a table field (p <= 16) or the GF(2^32) tower behind repro.gf.linalg.
 *
 * Compiled at runtime by repro.native (plain cc, no build system) and
 * loaded through ctypes as one library.  Its load-time self-check fuzzes
 * every entry point against the numpy code it stands in for; any
 * difference refuses the whole library.
 *
 * The product out = C @ src multiplies an (r, n) coefficient matrix by
 * n rows of m symbols stored w bits apiece, w in {4, 8, 16, 32}, into r
 * rows stored the same way: a row is (m w + 7) / 8 bytes, which makes it
 * a message record (w = p) or a uint32 array (w = 32).  Over GF(2) it
 * is G times the bit-planes of src, with G[(i,rr), (j,b)] = bit rr of
 * C_ij * y^b.  The kernel builds G itself from the field's tables (the
 * same logz / expz / c the elimination kernels take), one row of
 * products at a time (row_products).  Records at w >= 16 are
 * big-endian: a symbol's value bit b sits at native bit b XOR (w - 8) of
 * its field, a fixed permutation that the generator takes on both its
 * column (input) and row (output) bit indices, so no symbol is ever
 * byte-swapped.
 *
 * The product has two bodies behind the one entry point, and a build
 * has exactly one of them, picked by the target macros as the vector
 * width is (repro_gf2_body() names it):
 *
 * GFNI (__GFNI__ and __AVX512BW__).  G cut into 8x8 blocks is the map
 * from each input byte of a symbol to each output byte, one
 * vgf2p8affineqb matrix (affine_matrices: row_products' products
 * transposed, byte order reversed, as the instruction reads them).  A
 * row's bytes split into byte planes: a symbol is W = w / 8 bytes (one
 * byte holds two symbols at w = 4, which the w = 4 matrix treats as one
 * block-diagonal byte), so W consecutive 64-byte vectors hold 64 symbols
 * and a byte shuffle per 128-bit lane plus a 2x2 (qword) or 4x4 (dword)
 * transpose across the W vectors turns them into W vectors of one
 * symbol byte each.  That permutes the symbols inside the 64, which a
 * column-wise map cannot see; merge_planes is its inverse.  Only the
 * K = ceil(p / 8) planes that hold value bits are kept (K <= W: at
 * w = 32, p <= 16 leaves the high planes zero in and out), and every
 * product of a column tile is out_plane[ob] ^= affine(M[i,j,kb,ob],
 * src_plane[j][kb]) in registers over all n inner rows, so each output
 * byte is written once.  A tile is two groups of W vectors per row
 * (its planes stay in L1 up to n K = 256; four groups lost at n = 256
 * and gained nothing below); the rest of a row goes one group at a
 * time, and a group that ends past the row's last byte is staged
 * through a zeroed copy, so reads and writes of src and out stop at the
 * row's last byte.  The matrices take 8 K^2 bytes per coefficient,
 * built for row blocks of at most MAT_BYTES; a field of at most 256
 * elements with more coefficients than elements builds each element's
 * matrix once and looks the coefficients up.
 *
 * Four-Russians (every other target), the plan of the numpy body of
 * bit_matmul (packed generator, column blocks, four-Russians tables by
 * doubling, gather + XOR, unpack), laid out for the cache instead of
 * for numpy calls:
 *
 *  - a column block is 512 symbols, so a bit-row of the block is 8 words:
 *    one cache line, and the 256-entry table of one group of eight inner
 *    bit-rows is 16 KiB;
 *  - the gather takes four groups per pass, bit-row-inner over at most
 *    256 output bit-rows: each accumulator line is loaded and stored
 *    once per four table rows, and groups past the last one read the
 *    zero line, so there is one gather loop and no remainder;
 *  - symbols <-> bit-planes: the block's 512 w-bit symbols are w lines,
 *    and the last log2 w rounds of a 32x32 bit-matrix transpose network
 *    transpose the w x w bit matrix in every w-bit field of every word.
 *    That permutes the columns inside a block, which a column-wise map
 *    cannot see, and packing and unpacking are the same involution;
 *  - more than 512 inner bit-rows are taken in chunks of 64 groups (1 MiB
 *    of tables) whose partial products XOR into out, so scratch does not
 *    grow with n;
 *  - every line is loaded, combined and stored as vec_t, one vector as
 *    wide as the target has, never through a local copy: a line stored
 *    at one width and reloaded at another stalls store forwarding (gcc
 *    12's -march=sapphirerapids copies 64 bytes at 512 bits but
 *    vectorises loops at 256, which made that build the slowest one);
 *  - reads and writes of src and out stop at a row's last byte: the
 *    tail block copies, and XORs into out, (cols w + 7) / 8 bytes.
 *
 * The elimination kernels (repro_gf_full_rank, repro_gf_arrival) multiply
 * with a table field's own tables, as TableField does: a product is
 * expz[logz[a] + logz[x]], logz mapping 0 to the sentinel Z = 2(q-1)-1
 * and expz being zero from Z on, so a zero operand needs no branch.  The
 * tower reads its base GF(2^16)'s tables the same way, three products
 * to one of its own, as TowerField._mul does.  Every scratch buffer they
 * use is the caller's, sized by k.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__GFNI__) && defined(__AVX512BW__)
#include <immintrin.h>
#define AFFINE_BODY 1
#else
#define AFFINE_BODY 0
#endif

#if defined(__AVX512F__)
#define VEC_BYTES 64
#elif defined(__AVX__)
#define VEC_BYTES 32
#else
#define VEC_BYTES 16
#endif

/* Every kernel that multiplies is one body per field kind: a table field
 * or the tower GF(2^32) = GF(2^16)[y] / (y^2 + y + c) over a table
 * field's GF(2^16).  The kind is a constant in each copy, so no loop
 * branches on it. */
enum field_kind { TABLE, TOWER };

#define BODY static inline __attribute__((always_inline))

/* A table field's tables; for the tower, its base field's and c's log. */
struct tables {
    const intptr_t *restrict logz;
    const uint32_t *restrict expz;
    int64_t order; /* q - 1 of the table field */
    int32_t lc;
};

/* The vector width this build works lines at, in bytes. */
int repro_gf2_vector_bytes(void)
{
    return VEC_BYTES;
}

/* The product's body in this build: "gfni" or "four-russians". */
const char *repro_gf2_body(void)
{
    return AFFINE_BODY ? "gfni" : "four-russians";
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

/* v with bit rr moved to rr XOR e, for e in {0, 8, 24}: the symbol's
 * value bits in its record's native bit order. */
static inline uint32_t native_order(uint32_t v, const int e)
{
    return e == 24 ? __builtin_bswap32(v) : e == 8 ? __builtin_bswap16((uint16_t)v) : v;
}

/* lcb[b] = the log of c 2^b in the tower's base field, b < 16. */
static void tower_logs(const struct tables f, intptr_t *lcb)
{
    for (int b = 0; b < 16; b++) {
        lcb[b] = f.logz[f.expz[f.lc + b]];
    }
}

/* prow[j p + s] = C_ij * y^(s XOR e) in native bit order, for one row of
 * C (n coefficients), made from the field's tables: y^b is the element
 * 1 << b, log b in a table field; in the tower it is 2^b or 2^(b-16) y,
 * and (a1 y + a0) 2^b y = (a0 + a1) 2^b y + a1 c 2^b by y^2 = y + c,
 * with lcb from tower_logs. */
BODY void row_products(const int kind, const struct tables f, const intptr_t *lcb,
                       const uint32_t *coef, int64_t n, int64_t p, const int e,
                       uint32_t *restrict prow)
{
    const intptr_t *restrict logz = f.logz;
    const uint32_t *restrict expz = f.expz;
    for (int64_t j = 0; j < n; j++) {
        const uint32_t a = coef[j];
        uint32_t *dst = prow + j * p;
        if (kind == TOWER) {
            const intptr_t l0 = logz[a & 0xFFFF], l1 = logz[a >> 16];
            const intptr_t l01 = logz[(a & 0xFFFF) ^ (a >> 16)];
            for (int s = 0; s < 32; s++) {
                const int b = s ^ e;
                const uint32_t v = b < 16
                    ? expz[l1 + b] << 16 | expz[l0 + b]
                    : expz[l01 + b - 16] << 16 | expz[l1 + lcb[b - 16]];
                dst[s] = native_order(v, e);
            }
        }
        else {
            const intptr_t la = logz[a];
            for (int s = 0; s < p; s++) {
                dst[s] = native_order(expz[la + (s ^ e)], e);
            }
        }
    }
}

static size_t round64(size_t bytes)
{
    return (bytes + 63) & ~(size_t)63;
}

/* out = C @ src over the field of logz / expz / c (c = 0: that table
 * field, of 2^p elements; else the tower, p = 32, over it).  coef is
 * (r, n) uint32 coefficients, src and out are (n, m) and (r, m) symbols
 * stored w bits apiece (w >= p; big-endian at w >= 16 when big_endian
 * is nonzero, and then w = p), C-contiguous, every symbol < 2^p and
 * m w a multiple of 8.  Returns 0, or -2 when scratch cannot be
 * allocated (repro.native's status rule). */
int64_t repro_gf2_matmul(const uint32_t *coef, const uint8_t *src, uint8_t *out,
                         int64_t r, int64_t n, int64_t m, int64_t p, int64_t w,
                         int64_t big_endian, const intptr_t *logz, const uint32_t *expz,
                         int64_t c);

#if AFFINE_BODY

#define TILE 2                   /* groups of W vectors per row of a column tile */
#define ACCS 8                   /* accumulators a pass keeps in registers */
#define MAT_BYTES (1 << 20)      /* affine matrices of one row block */

/* mats[((i n + j) K + kb) K + ob] = the vgf2p8affineqb matrix of the map
 * from byte kb of src symbol j to byte ob of out symbol i, for rows
 * rows of C from coef: bit u of byte 7 - t is bit 8 ob + t of the
 * product of input bit u (byte kb's bit u of the symbol; at w = 4 the
 * byte's two nibbles are two symbols, so the matrix is the same 4 x 4
 * block twice). */
BODY void affine_matrices(const int kind, const struct tables f, const intptr_t *lcb,
                          const uint32_t *coef, int64_t rows, int64_t n, int64_t p,
                          int64_t w, const int e, const int K,
                          uint32_t *restrict prow, uint64_t *restrict mats)
{
    for (int64_t i = 0; i < rows; i++) {
        row_products(kind, f, lcb, coef + i * n, n, p, e, prow);
        for (int64_t j = 0; j < n; j++) {
            for (int kb = 0; kb < K; kb++) {
                uint32_t v[8];
                for (int u = 0; u < 8; u++) {
                    const int64_t s = w == 4 ? u & 3 : 8 * kb + u;
                    v[u] = s < p ? prow[j * p + s] << (w == 4 ? u & 4 : 0) : 0;
                }
                for (int ob = 0; ob < K; ob++) {
                    uint64_t x = 0;
                    for (int u = 0; u < 8; u++) {
                        x |= (uint64_t)((v[u] >> (8 * ob)) & 0xFF) << (8 * u);
                    }
                    mats[((i * n + j) * K + kb) * K + ob] = __builtin_bswap64(transpose8(x));
                }
            }
        }
    }
}

/* The same 16-byte shuffle in every 128-bit lane. */
static inline __m512i lane_shuffle(__m512i v, const char *idx)
{
    return _mm512_shuffle_epi8(v, _mm512_broadcast_i32x4(_mm_loadu_si128((const __m128i *)idx)));
}

/* The 4 x 4 dword transpose of v[0, 4) in every 128-bit lane: an
 * involution. */
BODY void transpose_dwords(__m512i *v)
{
    const __m512i ab0 = _mm512_unpacklo_epi32(v[0], v[1]), ab1 = _mm512_unpackhi_epi32(v[0], v[1]);
    const __m512i cd0 = _mm512_unpacklo_epi32(v[2], v[3]), cd1 = _mm512_unpackhi_epi32(v[2], v[3]);
    v[0] = _mm512_unpacklo_epi64(ab0, cd0);
    v[1] = _mm512_unpackhi_epi64(ab0, cd0);
    v[2] = _mm512_unpacklo_epi64(ab1, cd1);
    v[3] = _mm512_unpackhi_epi64(ab1, cd1);
}

/* Byte k of a lane's symbols, four of four bytes: a 4 x 4 byte
 * transpose, an involution. */
static const char by4[16] = {0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15};

/* W vectors of 64 symbols -> W byte planes: afterwards v[k] holds byte k
 * of every symbol (in an order merge_planes undoes).  A lane's shuffle
 * groups its symbols' bytes by plane, then the planes are transposed
 * across the W vectors, lane by lane. */
BODY void split_planes(const int W, __m512i *v)
{
    static const char by2[16] = {0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15};
    if (W == 2) {
        const __m512i a = lane_shuffle(v[0], by2), b = lane_shuffle(v[1], by2);
        v[0] = _mm512_unpacklo_epi64(a, b);
        v[1] = _mm512_unpackhi_epi64(a, b);
    }
    else if (W == 4) {
        for (int k = 0; k < 4; k++) {
            v[k] = lane_shuffle(v[k], by4);
        }
        transpose_dwords(v);
    }
}

/* Inverse of split_planes: the transpose across vectors (its own
 * inverse), then each lane's shuffle undone. */
BODY void merge_planes(const int W, __m512i *v)
{
    static const char from2[16] = {0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15};
    if (W == 2) {
        const __m512i a = _mm512_unpacklo_epi64(v[0], v[1]);
        const __m512i b = _mm512_unpackhi_epi64(v[0], v[1]);
        v[0] = lane_shuffle(a, from2);
        v[1] = lane_shuffle(b, from2);
    }
    else if (W == 4) {
        transpose_dwords(v);
        for (int k = 0; k < 4; k++) {
            v[k] = lane_shuffle(v[k], by4);
        }
    }
}

/* Rows [i, i + R) of out over one column tile: T groups of W vectors at
 * byte off of each row, bytes of them inside the row.  planes holds the
 * tile's K byte planes of every src row, T vectors apiece; R K T
 * accumulators stay in registers over all n inner rows. */
BODY void affine_pass(const int K, const int W, const int T, const int R,
                      const uint64_t *restrict mats, const __m512i *restrict planes,
                      uint8_t *restrict out, int64_t i, int64_t n, int64_t row_bytes,
                      int64_t off, int64_t bytes, __m512i *restrict stage)
{
    __m512i acc[ACCS];
#pragma GCC unroll 16
    for (int a = 0; a < R * K * T; a++) {
        acc[a] = _mm512_setzero_si512();
    }
    for (int64_t j = 0; j < n; j++) {
#pragma GCC unroll 4
        for (int kb = 0; kb < K; kb++) {
            __m512i x[TILE];
#pragma GCC unroll 4
            for (int t = 0; t < T; t++) {
                x[t] = planes[(j * K + kb) * T + t];
            }
#pragma GCC unroll 16
            for (int rb = 0; rb < R; rb++) {
                const uint64_t *m = mats + (((i + rb) * n + j) * K + kb) * K;
#pragma GCC unroll 4
                for (int ob = 0; ob < K; ob++) {
                    const __m512i a = _mm512_set1_epi64((long long)m[ob]);
#pragma GCC unroll 4
                    for (int t = 0; t < T; t++) {
                        __m512i *y = acc + (rb * K + ob) * T + t;
                        *y = _mm512_xor_si512(*y, _mm512_gf2p8affine_epi64_epi8(x[t], a, 0));
                    }
                }
            }
        }
    }
    const int64_t span = (int64_t)64 * W * T;
#pragma GCC unroll 16
    for (int rb = 0; rb < R; rb++) {
        uint8_t *dst = out + (i + rb) * row_bytes + off;
        uint8_t *to = bytes < span ? (uint8_t *)stage : dst;
#pragma GCC unroll 4
        for (int t = 0; t < T; t++) {
            __m512i v[4];
#pragma GCC unroll 4
            for (int ob = 0; ob < W; ob++) {
                v[ob] = ob < K ? acc[(rb * K + ob) * T + t] : _mm512_setzero_si512();
            }
            merge_planes(W, v);
#pragma GCC unroll 4
            for (int k = 0; k < W; k++) {
                _mm512_storeu_si512(to + 64 * (W * t + k), v[k]);
            }
        }
        if (bytes < span) {
            memcpy(dst, stage, (size_t)bytes);
        }
    }
}

/* out = C @ src over the column tile of T groups at byte off, bytes of
 * them inside each row: the tile's src planes once, then every row of
 * out, R at a time (the most whose accumulators fit ACCS), the rest one
 * by one. */
BODY void affine_tile(const int K, const int W, const int T,
                      const uint64_t *restrict mats, const uint8_t *restrict src,
                      uint8_t *restrict out, int64_t r, int64_t n, int64_t row_bytes,
                      int64_t off, int64_t bytes, __m512i *restrict planes,
                      __m512i *restrict stage)
{
    const int64_t span = (int64_t)64 * W * T;
    const int R = ACCS / (K * T);
    for (int64_t j = 0; j < n; j++) {
        const uint8_t *from = src + j * row_bytes + off;
        if (bytes < span) {
            memset(stage, 0, (size_t)span);
            memcpy(stage, from, (size_t)bytes);
            from = (const uint8_t *)stage;
        }
#pragma GCC unroll 4
        for (int t = 0; t < T; t++) {
            __m512i v[4];
#pragma GCC unroll 4
            for (int k = 0; k < W; k++) {
                v[k] = _mm512_loadu_si512(from + 64 * (W * t + k));
            }
            split_planes(W, v);
#pragma GCC unroll 4
            for (int kb = 0; kb < K; kb++) {
                planes[(j * K + kb) * T + t] = v[kb];
            }
        }
    }
    int64_t i = 0;
    for (; i + R <= r; i += R) {
        affine_pass(K, W, T, R, mats, planes, out, i, n, row_bytes, off, bytes, stage);
    }
    for (; i < r; i++) {
        affine_pass(K, W, T, 1, mats, planes, out, i, n, row_bytes, off, bytes, stage);
    }
}

/* out = C @ src for r rows of out, K value planes of W per symbol:
 * whole tiles, then the rest of each row a group at a time. */
BODY void affine_walk(const int K, const int W, const uint64_t *restrict mats,
                      const uint8_t *restrict src, uint8_t *restrict out, int64_t r,
                      int64_t n, int64_t row_bytes, __m512i *restrict planes,
                      __m512i *restrict stage)
{
    const int64_t group = (int64_t)64 * W, tile = TILE * group;
    int64_t off = 0;
    for (; off + tile <= row_bytes; off += tile) {
        affine_tile(K, W, TILE, mats, src, out, r, n, row_bytes, off, tile, planes, stage);
    }
    for (; off < row_bytes; off += group) {
        const int64_t bytes = row_bytes - off < group ? row_bytes - off : group;
        affine_tile(K, W, 1, mats, src, out, r, n, row_bytes, off, bytes, planes, stage);
    }
}

/* affine_walk with K and W constants: every (K, W) a width takes. */
static void affine_product(const int K, const int W, const uint64_t *mats,
                           const uint8_t *src, uint8_t *out, int64_t r, int64_t n,
                           int64_t row_bytes, __m512i *planes, __m512i *stage)
{
    switch (K * 8 + W) {
    case 1 * 8 + 1:
        affine_walk(1, 1, mats, src, out, r, n, row_bytes, planes, stage);
        break;
    case 1 * 8 + 2:
        affine_walk(1, 2, mats, src, out, r, n, row_bytes, planes, stage);
        break;
    case 2 * 8 + 2:
        affine_walk(2, 2, mats, src, out, r, n, row_bytes, planes, stage);
        break;
    case 1 * 8 + 4:
        affine_walk(1, 4, mats, src, out, r, n, row_bytes, planes, stage);
        break;
    case 2 * 8 + 4:
        affine_walk(2, 4, mats, src, out, r, n, row_bytes, planes, stage);
        break;
    default:
        affine_walk(4, 4, mats, src, out, r, n, row_bytes, planes, stage);
    }
}

int64_t repro_gf2_matmul(const uint32_t *coef, const uint8_t *src, uint8_t *out,
                         int64_t r, int64_t n, int64_t m, int64_t p, int64_t w,
                         int64_t big_endian, const intptr_t *logz, const uint32_t *expz,
                         int64_t c)
{
    const int e = big_endian && w >= 16 ? (int)w - 8 : 0;
    const int64_t row_bytes = m * w / 8;
    const int K = w == 4 ? 1 : (int)(p + 7) / 8;
    const int W = w <= 8 ? 1 : (int)w / 8;
    const int64_t row_mats = n * K * K * (int64_t)sizeof(uint64_t);
    const int64_t block = MAT_BYTES / row_mats < 1 ? 1 : MAT_BYTES / row_mats;
    const int64_t rows = r < block ? r : block;

    const size_t mats_bytes = round64((size_t)(rows * row_mats));
    /* A field of at most 256 elements (K = 1) with more coefficients
     * than elements: every element's matrix once, then one lookup each. */
    const int lookup = K == 1 && ((int64_t)1 << p) < rows * n;
    const int64_t q = lookup ? (int64_t)1 << p : 0;
    const size_t prow_bytes = round64((size_t)((lookup && n < q ? q : n) * p) * sizeof(uint32_t));
    const size_t planes_bytes = (size_t)n * K * TILE * sizeof(__m512i);
    const size_t stage_bytes = 4 * sizeof(__m512i); /* one group, W <= 4 vectors */
    char *raw = malloc(mats_bytes + prow_bytes + planes_bytes + stage_bytes + 63);
    if (raw == NULL) {
        return -2;
    }
    char *base = raw + (-(uintptr_t)raw & 63);
    uint64_t *mats = (uint64_t *)base;
    uint32_t *prow = (uint32_t *)(base + mats_bytes);
    __m512i *planes = (__m512i *)(base + mats_bytes + prow_bytes);
    __m512i *stage = planes + n * K * TILE;

    const struct tables f = {logz, expz, 0, c == 0 ? 0 : (int32_t)logz[c]};
    intptr_t lcb[16] = {0};
    if (c != 0) {
        tower_logs(f, lcb);
    }
    uint64_t byelem[256];
    if (lookup) {
        uint32_t elements[256];
        for (int64_t x = 0; x < q; x++) {
            elements[x] = (uint32_t)x;
        }
        affine_matrices(TABLE, f, lcb, elements, 1, q, p, w, e, 1, prow, byelem);
    }
    for (int64_t i0 = 0; i0 < r; i0 += rows) {
        const int64_t in = r - i0 < rows ? r - i0 : rows;
        if (lookup) {
            for (int64_t k = 0; k < in * n; k++) {
                mats[k] = byelem[coef[i0 * n + k]];
            }
        }
        else if (c == 0) {
            affine_matrices(TABLE, f, lcb, coef + i0 * n, in, n, p, w, e, K, prow, mats);
        }
        else {
            affine_matrices(TOWER, f, lcb, coef + i0 * n, in, n, p, w, e, K, prow, mats);
        }
        affine_product(K, W, mats, src, out + i0 * row_bytes, in, n, row_bytes, planes, stage);
    }
    free(raw);
    return 0;
}

#else /* four-Russians */

#define LANES 8                  /* 64-bit words per bit-row of a column block */
#define VECS (8 * LANES / VEC_BYTES)
#define BLOCK_COLS (32 * 2 * LANES)
#define ROW_BLOCK 256            /* output bit-rows gathered per pass */
#define GROUP_CHUNK 64           /* groups of eight inner bit-rows tabulated at once */

typedef uint64_t vec_t __attribute__((vector_size(VEC_BYTES)));
typedef vec_t line_t[VECS];

static const uint8_t zero_idx[ROW_BLOCK];

/* n lines from src, or zero lines when src is NULL. */
static inline void copy_lines(line_t *dst, const line_t *src, int64_t n)
{
    for (int64_t k = 0; k < n; k++) {
        for (int v = 0; v < VECS; v++) {
            dst[k][v] = src == NULL ? (vec_t){0} : src[k][v];
        }
    }
}

/* One round of the transpose network over lines x[0, w): swap the
 * off-diagonal j x j blocks of every 2j x 2j block (LSB-first). */
BODY void swap_round(line_t *x, const int w, const int j, const uint64_t mask)
{
    for (int k0 = 0; k0 < w; k0 += 2 * j) {
        for (int k = k0; k < k0 + j; k++) {
            for (int v = 0; v < VECS; v++) {
                const vec_t t = ((x[k][v] >> j) ^ x[k + j][v]) & mask;
                x[k][v] ^= t << j;
                x[k + j][v] ^= t;
            }
        }
    }
}

/* The last log2 w rounds of the 32x32 network, over w lines. */
BODY void transpose_at(line_t *x, const int w)
{
    if (w >= 32) {
        swap_round(x, w, 16, 0x0000FFFF0000FFFFULL);
    }
    if (w >= 16) {
        swap_round(x, w, 8, 0x00FF00FF00FF00FFULL);
    }
    if (w >= 8) {
        swap_round(x, w, 4, 0x0F0F0F0F0F0F0F0FULL);
    }
    swap_round(x, w, 2, 0x3333333333333333ULL);
    swap_round(x, w, 1, 0x5555555555555555ULL);
}

/* Transpose, in every w-bit field of every lane, the w x w bit matrix
 * whose row s is x[s]: afterwards bit s of x[b] is what bit b of x[s]
 * was. */
static void transpose(line_t *x, const int64_t w)
{
    switch (w) {
    case 4:
        transpose_at(x, 4);
        break;
    case 8:
        transpose_at(x, 8);
        break;
    case 16:
        transpose_at(x, 16);
        break;
    default:
        transpose_at(x, 32);
    }
}

/* gen[g][(i,rr)] = the byte whose bit u is G[(i,rr), 8g + u], the table
 * index of output bit-row (i,rr) in group g, with
 * G[(i,rr), (j,s)] = bit rr XOR e of C_ij * y^(s XOR e): row_products'
 * prow (n p entries) cut in groups of eight and transposed. */
BODY void generator_body(const int kind, const struct tables f, const uint32_t *coef,
                         int64_t r, int64_t n, int64_t p, const int e,
                         uint32_t *restrict prow, uint8_t *restrict gen)
{
    const int64_t inner = n * p;
    const int64_t ngroups = (inner + 7) / 8;
    intptr_t lcb[16] = {0};
    if (kind == TOWER) {
        tower_logs(f, lcb);
    }
    for (int64_t i = 0; i < r; i++) {
        row_products(kind, f, lcb, coef + i * n, n, p, e, prow);
        for (int64_t g = 0; g < ngroups; g++) {
            uint32_t v[8] = {0};
            uint8_t *dst = gen + (g * r + i) * p;
            for (int64_t u = 0; u < 8 && 8 * g + u < inner; u++) {
                v[u] = prow[8 * g + u];
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

int64_t repro_gf2_matmul(const uint32_t *coef, const uint8_t *src, uint8_t *out,
                         int64_t r, int64_t n, int64_t m, int64_t p, int64_t w,
                         int64_t big_endian, const intptr_t *logz, const uint32_t *expz,
                         int64_t c)
{
    const int e = big_endian && w >= 16 ? (int)w - 8 : 0;
    const int64_t row_bytes = m * w / 8;
    const int64_t inner = n * p;
    const int64_t ngroups = (inner + 7) / 8;
    const int64_t chunk = ngroups < GROUP_CHUNK ? ngroups : GROUP_CHUNK;
    const int64_t block_rows = ROW_BLOCK / p;  /* whole symbol rows */

    const size_t gen_bytes = round64((size_t)(ngroups * r * p));
    const size_t prow_bytes = round64((size_t)inner * sizeof(uint32_t));
    const size_t tab_bytes = (size_t)chunk * 256 * sizeof(line_t);
    const size_t bits_bytes = (size_t)chunk * 8 * sizeof(line_t);
    const size_t acc_bytes = ROW_BLOCK * sizeof(line_t);
    const size_t x_bytes = (size_t)w * sizeof(line_t);
    char *raw = malloc(gen_bytes + prow_bytes + tab_bytes + bits_bytes + acc_bytes
                       + x_bytes + 63);
    if (raw == NULL) {
        return -2;
    }
    /* Table rows are cache lines only if the scratch is line-aligned. */
    char *base = raw + (-(uintptr_t)raw & 63);
    uint8_t *gen = (uint8_t *)base;
    uint32_t *prow = (uint32_t *)(base + gen_bytes);
    line_t *tables = (line_t *)(base + gen_bytes + prow_bytes);
    line_t *bits = tables + chunk * 256;
    line_t *acc = bits + chunk * 8;
    line_t *x = acc + ROW_BLOCK;

    if (c == 0) {
        const struct tables f = {logz, expz, 0, 0};
        generator_body(TABLE, f, coef, r, n, p, e, prow, gen);
    }
    else {
        const struct tables f = {logz, expz, 0, (int32_t)logz[c]};
        generator_body(TOWER, f, coef, r, n, p, e, prow, gen);
    }

    for (int64_t g0 = 0; g0 < ngroups; g0 += chunk) {
        const int64_t gn = ngroups - g0 < chunk ? ngroups - g0 : chunk;
        const int64_t t0 = 8 * g0;
        const int64_t t1 = t0 + 8 * gn < inner ? t0 + 8 * gn : inner;

        for (int64_t c0 = 0; c0 < m; c0 += BLOCK_COLS) {
            const int64_t cols = m - c0 < BLOCK_COLS ? m - c0 : BLOCK_COLS;
            const size_t col_bytes = (size_t)(cols * w + 7) / 8;
            const int64_t offset = c0 * w / 8;

            /* Pack: inner bit-rows t0..t1 of this column block, the last
             * group zero-padded to eight. */
            copy_lines(bits + (t1 - t0), NULL, 8 * gn - (t1 - t0));
            for (int64_t j = t0 / p; j * p < t1; j++) {
                memcpy(x, src + j * row_bytes + offset, col_bytes);
                memset((char *)x + col_bytes, 0, x_bytes - col_bytes);
                transpose(x, w);
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
                    for (int k = 0; k < (1 << b); k++) {
                        for (int v = 0; v < VECS; v++) {
                            tab[(1 << b) + k][v] = tab[k][v] ^ bits[8 * g + b][v];
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
                        const vec_t *cc = tab[2][idx[2][row]], *d = tab[3][idx[3][row]];
                        for (int v = 0; v < VECS; v++) {
                            acc[row][v] ^= (a[v] ^ b[v]) ^ (cc[v] ^ d[v]);
                        }
                    }
                }

                /* Unpack each symbol row's p bit-rows into out; later
                 * chunks of inner bits add to what the first one wrote. */
                for (int64_t i = 0; i < in; i++) {
                    uint8_t *restrict dst = out + (i0 + i) * row_bytes + offset;
                    copy_lines(x, acc + i * p, p);
                    copy_lines(x + p, NULL, w - p);
                    transpose(x, w);
                    if (g0 == 0) {
                        memcpy(dst, x, col_bytes);
                    }
                    else {
                        const uint8_t *restrict sym = (const uint8_t *)x;
                        for (size_t k = 0; k < col_bytes; k++) {
                            dst[k] ^= sym[k];
                        }
                    }
                }
            }
        }
    }
    free(raw);
    return 0;
}

#endif

/* Every elimination step below is one body written once and instantiated
 * for each field kind.  Either way the inner loop is
 * row[j] ^= a * x[j] with a's logs fixed for the loop and x[j]'s read
 * from scratch (or taken through logz on the fly).
 *
 * A table field keeps one log per element: a * x is expz[la + lx].
 * The tower keeps three per element, [x0, x1, x0 + x1] for x = x1 y + x0,
 * and three per factor, [a0, c a1, a0 + a1].  By Karatsuba and
 * y^2 = y + c, a x = (t0 + tm) y + (t0 + c a1 x1) with t0 = a0 x0 and
 * tm = (a0 + a1)(x0 + x1): three base products, each expz[la + lx]
 * (a1 x1 itself is never needed).  An inverse goes through the norm
 * a0 (a0 + a1) + c a1^2, as TowerField._inv does.
 *
 * A log is below Z or the sentinel Z itself, so every index sum is at
 * most 2Z, inside expz's 2Z + 1 entries, and below 2^18 for p <= 16:
 * logs kept in scratch are int32, so a vector gathers twice the indices
 * it would as intptr. */

/* Int32 logs one element, or one factor, keeps in scratch. */
#define NLOGS(kind) ((kind) == TOWER ? 3 : 1)

/* The log of a / b in a table field, a and b nonzero: in [0, order),
 * never the sentinel. */
BODY int32_t log_div(const intptr_t *logz, uint32_t a, uint32_t b, int64_t order)
{
    intptr_t l = logz[a] - logz[b];
    return (int32_t)(l < 0 ? l + order : l);
}

/* The logs element x keeps, into out. */
BODY void element_logs(const struct tables f, const int kind, uint32_t x, int32_t *out)
{
    if (kind == TOWER) {
        const uint32_t x0 = x & 0xFFFF, x1 = x >> 16;
        out[0] = (int32_t)f.logz[x0];
        out[1] = (int32_t)f.logz[x1];
        out[2] = (int32_t)f.logz[x0 ^ x1];
    }
    else {
        out[0] = (int32_t)f.logz[x];
    }
}

/* The logs factor a keeps, into out. */
BODY void factor_logs(const struct tables f, const int kind, uint32_t a, int32_t *out)
{
    if (kind == TOWER) {
        const uint32_t a0 = a & 0xFFFF, a1 = a >> 16;
        out[0] = (int32_t)f.logz[a0];
        out[1] = (int32_t)f.logz[f.expz[f.lc + f.logz[a1]]];
        out[2] = (int32_t)f.logz[a0 ^ a1];
    }
    else {
        out[0] = (int32_t)f.logz[a];
    }
}

/* Whether the factor with logs la is zero. */
BODY int factor_is_zero(const struct tables f, const int kind, const int32_t *la)
{
    const int32_t zero = (int32_t)f.logz[0];
    return la[0] == zero && (kind == TABLE || la[2] == zero);
}

/* a * x from the factor's logs la and the element's lx. */
BODY uint32_t product(const struct tables f, const int kind, const int32_t *la,
                      const int32_t *lx)
{
    const uint32_t t0 = f.expz[la[0] + lx[0]];
    if (kind == TOWER) {
        return (t0 ^ f.expz[la[2] + lx[2]]) << 16 | (t0 ^ f.expz[la[1] + lx[1]]);
    }
    return t0;
}

/* The logs of the factor a / b, a and b nonzero, into out. */
BODY void quotient_logs(const struct tables f, const int kind, uint32_t a, uint32_t b,
                        int32_t *out)
{
    if (kind == TOWER) {
        const intptr_t *restrict logz = f.logz;
        const uint32_t *restrict expz = f.expz;
        const uint32_t b0 = b & 0xFFFF, b1 = b >> 16;
        const uint32_t sq = expz[2 * logz[b1]];
        const uint32_t norm = expz[logz[b0] + logz[b0 ^ b1]] ^ expz[f.lc + logz[sq]];
        const int32_t ln = log_div(logz, 1, norm, f.order);
        /* 1 / b = (b1 y + (b0 + b1)) / norm */
        const uint32_t inv = expz[logz[b1] + ln] << 16 | expz[logz[b0 ^ b1] + ln];
        int32_t la[3], lx[3];
        factor_logs(f, kind, a, la);
        element_logs(f, kind, inv, lx);
        factor_logs(f, kind, product(f, kind, la, lx), out);
    }
    else {
        out[0] = log_div(f.logz, a, b, f.order);
    }
}

BODY void full_rank_body(const int kind, uint32_t *restrict a, int64_t nblocks, int64_t k,
                         const struct tables f, int32_t *restrict lrow,
                         uint8_t *restrict full)
{
    const int n = NLOGS(kind);
    for (int64_t b = 0; b < nblocks; b++) {
        uint32_t *m = a + b * k * k;
        full[b] = 1;
        for (int64_t col = 0; col < k; col++) {
            int64_t src = col;
            while (src < k && m[src * k + col] == 0) {
                src++;
            }
            if (src == k) {
                full[b] = 0;
                break;
            }
            uint32_t *prow = m + col * k;
            if (src != col) {
                uint32_t *other = m + src * k;
                for (int64_t j = col; j < k; j++) {
                    const uint32_t t = prow[j];
                    prow[j] = other[j];
                    other[j] = t;
                }
            }
            const uint32_t pivot = prow[col];
            for (int64_t j = col + 1; j < k; j++) {
                element_logs(f, kind, prow[j], lrow + n * j);
            }
            for (int64_t r = col + 1; r < k; r++) {
                uint32_t *restrict row = m + r * k;
                if (row[col] == 0) {
                    continue;
                }
                int32_t lf[3];
                quotient_logs(f, kind, row[col], pivot, lf);
                for (int64_t j = col + 1; j < k; j++) {
                    row[j] ^= product(f, kind, lf, lrow + n * j);
                }
            }
        }
    }
}

/* Full-rank verdicts of nblocks (k, k) blocks, C-contiguous in a, by
 * forward elimination in place (a is scratch afterwards): full[b] is 1
 * iff block b has rank k.  logz / expz / order are a table field's
 * tables and q - 1; c is 0 for that field itself, or the tower's c over
 * it.  lrow is caller scratch of k entries (3k for the tower). */
void repro_gf_full_rank(uint32_t *restrict a, int64_t nblocks, int64_t k,
                        const intptr_t *restrict logz, const uint32_t *restrict expz,
                        int64_t order, int64_t c, int32_t *restrict lrow,
                        uint8_t *restrict full)
{
    if (c == 0) {
        const struct tables f = {logz, expz, order, 0};
        full_rank_body(TABLE, a, nblocks, k, f, lrow, full);
    }
    else {
        const struct tables f = {logz, expz, order, (int32_t)logz[c]};
        full_rank_body(TOWER, a, nblocks, k, f, lrow, full);
    }
}

/* One progressive decoder's arrival state: everything but the rank,
 * fixed for the decoder's life. */
struct gf_arrival {
    uint32_t *red;          /* (k, 2k) rows [e | t], C-contiguous */
    const intptr_t *pivots; /* (k,): pivots[i] of kept row i */
    const intptr_t *logz;   /* a table field's tables */
    const uint32_t *expz;
    int32_t *scratch;       /* 2k entries (6k for the tower) */
    int64_t k;
    int64_t order;          /* q - 1 of the table field */
    int64_t c;              /* 0: that field; else the tower's c over it */
};

BODY int64_t arrival_body(const int kind, const struct gf_arrival *s, int64_t rank)
{
    const int n = NLOGS(kind);
    const struct tables f = {s->logz, s->expz, s->order,
                             kind == TOWER ? (int32_t)s->logz[s->c] : 0};
    uint32_t *const red = s->red;
    const intptr_t *restrict const pivots = s->pivots;
    int32_t *restrict const scratch = s->scratch;
    const int64_t k = s->k;
    uint32_t *restrict const row = red + rank * 2 * k;
    int64_t width = k + rank;

    /* The factors are read off the arrival before it changes: the kept
     * rows are zero at each other's pivots, so they would not move. */
    for (int64_t i = 0; i < rank; i++) {
        factor_logs(f, kind, row[pivots[i]], scratch + n * i);
    }
    for (int64_t i = 0; i < rank; i++) {
        const int32_t *lf = scratch + n * i;
        if (factor_is_zero(f, kind, lf)) {
            continue;
        }
        const uint32_t *restrict kept = red + i * 2 * k;
        for (int64_t j = 0; j < width; j++) {
            int32_t lx[3];
            element_logs(f, kind, kept[j], lx);
            row[j] ^= product(f, kind, lf, lx);
        }
    }

    int64_t pivot = 0;
    while (pivot < k && row[pivot] == 0) {
        pivot++;
    }
    if (pivot == k) {
        return -1;
    }
    row[width++] = 1; /* the new raw row enters its own combination */
    const uint32_t lead = row[pivot];
    int32_t *restrict const lrow = scratch;
    if (lead != 1) {
        int32_t linv[3];
        quotient_logs(f, kind, 1, lead, linv);
        for (int64_t j = pivot; j < width; j++) {
            int32_t lx[3];
            element_logs(f, kind, row[j], lx);
            row[j] = product(f, kind, linv, lx);
        }
    }
    for (int64_t j = pivot; j < width; j++) {
        element_logs(f, kind, row[j], lrow + n * j);
    }
    for (int64_t i = 0; i < rank; i++) {
        uint32_t *restrict kept = red + i * 2 * k;
        if (kept[pivot] == 0) {
            continue;
        }
        int32_t lf[3];
        factor_logs(f, kind, kept[pivot], lf);
        for (int64_t j = pivot; j < width; j++) {
            kept[j] ^= product(f, kind, lf, lrow + n * j);
        }
    }
    return pivot;
}

/* One arrival of the progressive decoder on the rows [e | t] of s->red.
 * Rows [0, rank) are kept: e in reduced row echelon form, 1 at pivots[i]
 * in row i and 0 at every other kept pivot; t zero from column k + rank
 * on.  Row rank is the arrival, [beta | 0].
 *
 * The arrival is reduced against the kept rows.  If its e part cancels,
 * -1 is returned and its t part says which combination of the kept raw
 * rows it equals.  Otherwise its pivot, the first nonzero column of e,
 * is returned, after the arrival's t got its unit at k + rank, the row
 * was normalised and the pivot column was cleared from the kept rows.
 * Columns past k + rank are zero in every row involved and are not
 * visited. */
int64_t repro_gf_arrival(const struct gf_arrival *s, int64_t rank)
{
    return s->c == 0 ? arrival_body(TABLE, s, rank) : arrival_body(TOWER, s, rank);
}
