/* Multi-buffer MD5 behind repro.security.integrity: the owner's digest of
 * every coded message in a publish or repair batch (Section III-C).
 *
 * Compiled at runtime by repro.native (plain cc, no build system) and
 * loaded through ctypes.  Its load-time self-check compares it with
 * hashlib.md5 bit for bit; any difference refuses the library and the
 * batch is hashed on hashlib.
 *
 * One message per 32-bit lane of vec_t, a vector as wide as the target's
 * macros give (16 lanes under AVX-512, 8 under AVX, 4 otherwise): every
 * step of RFC 1321's compression runs on all lanes at once.  Each lane
 * walks its own message, whole 64-byte blocks read in place and then the
 * one or two blocks of its tail, padding and bit length built in the
 * lane's own buffer.  A lane whose message is done writes its digest and
 * takes the next message of the batch, so mixed lengths keep every lane
 * busy until fewer messages than lanes are left; an idle lane hashes a
 * zero block nobody reads.
 *
 * Messages cross as an array of start addresses and one of byte lengths;
 * digests come back as 16 bytes each, in the batch's order.
 */
#include <stdint.h>
#include <string.h>

#if defined(__AVX512F__)
#define VEC_BYTES 64
#elif defined(__AVX__)
#define VEC_BYTES 32
#else
#define VEC_BYTES 16
#endif

#define LANES (VEC_BYTES / 4)

typedef uint32_t vec_t __attribute__((vector_size(VEC_BYTES)));

/* T[i] = floor(2^32 * abs(sin(i + 1))), RFC 1321 section 3.4. */
static const uint32_t T[64] = {
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a,
    0xa8304613, 0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be,
    0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340,
    0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8,
    0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c,
    0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
    0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92,
    0xffeff47d, 0x85845dd1, 0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1,
    0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
};

static const uint32_t IV[4] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476};

static const unsigned char zero_block[64];

#define F(b, c, d) ((d) ^ ((b) & ((c) ^ (d))))
#define G(b, c, d) ((c) ^ ((d) & ((b) ^ (c))))
#define H(b, c, d) ((b) ^ (c) ^ (d))
#define I(b, c, d) ((c) ^ ((b) | ~(d)))
#define STEP(f, a, b, c, d, x, t, s)                                    \
    do {                                                                \
        (a) += f((b), (c), (d)) + (x) + (t);                            \
        (a) = ((a) << (s) | (a) >> (32 - (s))) + (b);                   \
    } while (0)

static inline uint32_t load_le32(const unsigned char *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 |
           (uint32_t)p[3] << 24;
}

/* One compression of every lane's state with its lane's block. */
static void compress(vec_t st[4], const unsigned char *const blk[LANES])
{
    vec_t x[16];
    for (int j = 0; j < 16; j++)
        for (int l = 0; l < LANES; l++)
            x[j][l] = load_le32(blk[l] + 4 * j);
    vec_t a = st[0], b = st[1], c = st[2], d = st[3];
    for (int i = 0; i < 16; i += 4) {
        STEP(F, a, b, c, d, x[i], T[i], 7);
        STEP(F, d, a, b, c, x[i + 1], T[i + 1], 12);
        STEP(F, c, d, a, b, x[i + 2], T[i + 2], 17);
        STEP(F, b, c, d, a, x[i + 3], T[i + 3], 22);
    }
    for (int i = 0; i < 16; i += 4) {
        STEP(G, a, b, c, d, x[(5 * i + 1) & 15], T[16 + i], 5);
        STEP(G, d, a, b, c, x[(5 * i + 6) & 15], T[17 + i], 9);
        STEP(G, c, d, a, b, x[(5 * i + 11) & 15], T[18 + i], 14);
        STEP(G, b, c, d, a, x[(5 * i) & 15], T[19 + i], 20);
    }
    for (int i = 0; i < 16; i += 4) {
        STEP(H, a, b, c, d, x[(3 * i + 5) & 15], T[32 + i], 4);
        STEP(H, d, a, b, c, x[(3 * i + 8) & 15], T[33 + i], 11);
        STEP(H, c, d, a, b, x[(3 * i + 11) & 15], T[34 + i], 16);
        STEP(H, b, c, d, a, x[(3 * i + 14) & 15], T[35 + i], 23);
    }
    for (int i = 0; i < 16; i += 4) {
        STEP(I, a, b, c, d, x[(7 * i) & 15], T[48 + i], 6);
        STEP(I, d, a, b, c, x[(7 * i + 7) & 15], T[49 + i], 10);
        STEP(I, c, d, a, b, x[(7 * i + 14) & 15], T[50 + i], 15);
        STEP(I, b, c, d, a, x[(7 * i + 5) & 15], T[51 + i], 21);
    }
    st[0] += a;
    st[1] += b;
    st[2] += c;
    st[3] += d;
}

/* What one lane is hashing: message msg (-1: idle), full blocks left
 * to read at next, then tail_left of the tail_blocks blocks in tail. */
struct lane {
    int64_t msg;
    const unsigned char *next;
    int64_t full_left;
    int tail_blocks, tail_left;
    unsigned char tail[128];
};

static void start(struct lane *ln, vec_t st[4], int l, int64_t msg,
                  const unsigned char *ptr, int64_t len)
{
    int64_t full = len / 64;
    int rem = (int)(len % 64);
    uint64_t bits = (uint64_t)len << 3;
    ln->msg = msg;
    ln->next = ptr;
    ln->full_left = full;
    ln->tail_blocks = ln->tail_left = rem < 56 ? 1 : 2;
    memset(ln->tail, 0, sizeof ln->tail);
    if (rem)
        memcpy(ln->tail, ptr + 64 * full, (size_t)rem);
    ln->tail[rem] = 0x80;
    for (int b = 0; b < 8; b++)
        ln->tail[64 * ln->tail_blocks - 8 + b] = (unsigned char)(bits >> 8 * b);
    for (int w = 0; w < 4; w++)
        st[w][l] = IV[w];
}

/* The number of messages hashed side by side. */
int repro_md5_lanes(void)
{
    return LANES;
}

/* out[16 i .. 16 i + 15] = MD5 of the lens[i] bytes at ptrs[i], i < n. */
void repro_md5_many(unsigned char *out, const unsigned char *const *ptrs,
                    const int64_t *lens, int64_t n)
{
    struct lane lanes[LANES];
    const unsigned char *blk[LANES];
    vec_t st[4] = {{0}};
    int64_t taken = 0, busy = 0;
    for (int l = 0; l < LANES; l++) {
        lanes[l].msg = -1;
        if (taken < n) {
            start(&lanes[l], st, l, taken, ptrs[taken], lens[taken]);
            taken++;
            busy++;
        }
    }
    while (busy) {
        for (int l = 0; l < LANES; l++) {
            struct lane *ln = &lanes[l];
            if (ln->msg < 0)
                blk[l] = zero_block;
            else if (ln->full_left)
                blk[l] = ln->next;
            else
                blk[l] = ln->tail + 64 * (ln->tail_blocks - ln->tail_left);
        }
        compress(st, blk);
        for (int l = 0; l < LANES; l++) {
            struct lane *ln = &lanes[l];
            if (ln->msg < 0)
                continue;
            if (ln->full_left) {
                ln->full_left--;
                ln->next += 64;
                continue;
            }
            if (--ln->tail_left)
                continue;
            unsigned char *dst = out + 16 * ln->msg;
            for (int w = 0; w < 4; w++)
                for (int b = 0; b < 4; b++)
                    dst[4 * w + b] = (unsigned char)(st[w][l] >> 8 * b);
            if (taken < n) {
                start(ln, st, l, taken, ptrs[taken], lens[taken]);
                taken++;
            } else {
                ln->msg = -1;
                busy--;
            }
        }
    }
}
