/* Multi-buffer keyed SHA-256 stream behind repro.security.prng: the
 * coefficient rows of a batch of message ids (Section III-A).
 *
 * Compiled at runtime by repro.native (plain cc, no build system) and
 * loaded through ctypes.  Its load-time self-check compares it with the
 * hmac/hashlib stream bit for bit; any difference refuses the library and
 * every row is drawn on hashlib.
 *
 * The stream of label L under key K is block t = SHA256(seed || u64be(t))
 * with seed = HMAC-SHA256(K, u32be(16) || L as 16 big-endian bytes).  The
 * kernel takes labels below 2^64 and keys of at most 64 bytes (HMAC pads
 * such a key, it does not hash it), so every message the kernel hashes
 * fits one block after the key's ipad and opad midstates, which it
 * computes once per call, side by side in two lanes.
 *
 * One hash per 32-bit lane of vec_t, a vector as wide as the target's
 * macros give (16 lanes under AVX-512, 8 under AVX, 4 otherwise).  Labels
 * are taken CHUNK at a time: first the lanes cover the chunk's labels, two
 * compressions each (inner and outer HMAC), seeds kept on the stack; then
 * they cover the flat list of the chunk's (label, counter) blocks, so one
 * long stream fills every lane as well as many short ones do.  Lanes past
 * the end of a list hash a block nobody reads.
 *
 * Nothing is kept between calls: the key crosses on every call and its
 * midstates live on the caller's stack, so concurrent calls (ctypes
 * releases the GIL) share no state.
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
#define CHUNK 64 /* labels per pass; a multiple of every LANES */

typedef uint32_t vec_t __attribute__((vector_size(VEC_BYTES)));

/* FIPS 180-4 section 4.2.2. */
static const uint32_t K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

static const uint32_t IV[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                               0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

#define ROTR(x, n) ((x) >> (n) | (x) << (32 - (n)))
#define ROUND(a, b, c, d, e, f, g, h, i, wi)                                  \
    do {                                                                      \
        vec_t t1 = (h) + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25)) +           \
                   ((g) ^ ((e) & ((f) ^ (g)))) + K[i] + (wi);                 \
        vec_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22)) +                 \
                   (((a) & (b)) | ((c) & ((a) | (b))));                       \
        (d) += t1;                                                            \
        (h) = t1 + t2;                                                        \
    } while (0)

/* One compression of every lane's state st with its lane's words w
 * (w is overwritten by the message schedule). */
static void compress(vec_t st[8], vec_t w[16])
{
    vec_t a = st[0], b = st[1], c = st[2], d = st[3];
    vec_t e = st[4], f = st[5], g = st[6], h = st[7];
    for (int i = 0; i < 64; i += 8) {
        if (i >= 16)
            for (int j = i; j < i + 8; j++) {
                vec_t w1 = w[(j + 1) & 15], w14 = w[(j + 14) & 15];
                w[j & 15] += (ROTR(w1, 7) ^ ROTR(w1, 18) ^ (w1 >> 3)) +
                             w[(j + 9) & 15] +
                             (ROTR(w14, 17) ^ ROTR(w14, 19) ^ (w14 >> 10));
            }
        ROUND(a, b, c, d, e, f, g, h, i, w[i & 15]);
        ROUND(h, a, b, c, d, e, f, g, i + 1, w[(i + 1) & 15]);
        ROUND(g, h, a, b, c, d, e, f, i + 2, w[(i + 2) & 15]);
        ROUND(f, g, h, a, b, c, d, e, i + 3, w[(i + 3) & 15]);
        ROUND(e, f, g, h, a, b, c, d, i + 4, w[(i + 4) & 15]);
        ROUND(d, e, f, g, h, a, b, c, i + 5, w[(i + 5) & 15]);
        ROUND(c, d, e, f, g, h, a, b, i + 6, w[(i + 6) & 15]);
        ROUND(b, c, d, e, f, g, h, a, i + 7, w[(i + 7) & 15]);
    }
    st[0] += a;
    st[1] += b;
    st[2] += c;
    st[3] += d;
    st[4] += e;
    st[5] += f;
    st[6] += g;
    st[7] += h;
}

static inline uint32_t load_be32(const unsigned char *p)
{
    return (uint32_t)p[0] << 24 | (uint32_t)p[1] << 16 | (uint32_t)p[2] << 8 |
           (uint32_t)p[3];
}

/* The number of hashes computed side by side. */
int repro_keyed_lanes(void)
{
    return LANES;
}

/* Row i < n of out (per bytes) = the first per bytes of the stream of
 * labels[i] under the key_len bytes at key.  Returns 0, or -3 (refused;
 * writes nothing) unless 0 < key_len <= 64, n >= 0 and per >= 0. */
int64_t repro_keyed_stream(unsigned char *out, const unsigned char *key,
                           int64_t key_len, const uint64_t *labels, int64_t n,
                           int64_t per)
{
    if (key_len < 1 || key_len > 64 || n < 0 || per < 0)
        return -3;
    /* Lane 0: the ipad block, lane 1: the opad block, hashed from IV. */
    unsigned char padded[64] = {0};
    memcpy(padded, key, (size_t)key_len);
    vec_t w[16], st[8], mid[2][8];
    for (int j = 0; j < 16; j++) {
        uint32_t word = load_be32(padded + 4 * j);
        w[j] = (vec_t){0};
        w[j][0] = word ^ 0x36363636u;
        w[j][1] = word ^ 0x5c5c5c5cu;
    }
    for (int j = 0; j < 8; j++)
        st[j] = (vec_t){0} + IV[j];
    compress(st, w);
    for (int j = 0; j < 8; j++) {
        mid[0][j] = (vec_t){0} + st[j][0];
        mid[1][j] = (vec_t){0} + st[j][1];
    }

    int64_t blocks = (per + 31) / 32;
    uint32_t seeds[CHUNK][8];
    for (int64_t first = 0; first < n; first += CHUNK) {
        int64_t count = n - first < CHUNK ? n - first : CHUNK;

        /* Phase 1: seed = HMAC(key, u32be(16) || 0^8 || u64be(label)). */
        for (int64_t base = 0; base < count; base += LANES) {
            for (int j = 0; j < 16; j++)
                w[j] = (vec_t){0};
            w[0] += 16;
            w[5] += 0x80000000u;
            w[15] += 8 * (64 + 20);
            for (int l = 0; l < LANES && base + l < count; l++) {
                uint64_t label = labels[first + base + l];
                w[3][l] = (uint32_t)(label >> 32);
                w[4][l] = (uint32_t)label;
            }
            memcpy(st, mid[0], sizeof st);
            compress(st, w);
            for (int j = 0; j < 8; j++)
                w[j] = st[j];
            for (int j = 8; j < 16; j++)
                w[j] = (vec_t){0};
            w[8] += 0x80000000u;
            w[15] += 8 * (64 + 32);
            memcpy(st, mid[1], sizeof st);
            compress(st, w);
            for (int l = 0; l < LANES && base + l < count; l++)
                for (int j = 0; j < 8; j++)
                    seeds[base + l][j] = st[j][l];
        }

        /* Phase 2: block t of label i = SHA256(seed_i || u64be(t)). */
        int64_t total = count * blocks;
        for (int64_t base = 0; base < total; base += LANES) {
            for (int j = 8; j < 16; j++)
                w[j] = (vec_t){0};
            w[10] += 0x80000000u;
            w[15] += 8 * 40;
            for (int l = 0; l < LANES; l++) {
                int64_t flat = base + l < total ? base + l : 0;
                int64_t i = flat / blocks, t = flat % blocks;
                for (int j = 0; j < 8; j++)
                    w[j][l] = seeds[i][j];
                w[8][l] = (uint32_t)((uint64_t)t >> 32);
                w[9][l] = (uint32_t)t;
            }
            for (int j = 0; j < 8; j++)
                st[j] = (vec_t){0} + IV[j];
            compress(st, w);
            uint32_t digest[8][LANES];
            memcpy(digest, st, sizeof digest);
            for (int l = 0; l < LANES && base + l < total; l++) {
                int64_t i = (base + l) / blocks, t = (base + l) % blocks;
                int64_t at = 32 * t, len = per - at < 32 ? per - at : 32;
                unsigned char bytes[32];
                for (int j = 0; j < 8; j++)
                    for (int b = 0; b < 4; b++)
                        bytes[4 * j + b] = (unsigned char)(digest[j][l] >> (24 - 8 * b));
                memcpy(out + (first + i) * per + at, bytes, (size_t)len);
            }
        }
    }
    return 0;
}
