/* Montgomery modular exponentiation behind repro.security.modexp: the two
 * half-width CRT powers of PrivateKey's private-key operation and
 * Miller-Rabin's witness power.
 *
 * Compiled at runtime by repro.native (plain cc, no build system) and
 * loaded through ctypes.  Its load-time self-check compares it with
 * Python's builtin pow bit for bit, and every private-key result is
 * still checked with the public exponent, on pow, before it is released.
 *
 * Numbers cross as little-endian byte strings: the modulus and
 * R^2 mod m (R = 2^(64 n)) as n 64-bit limbs each, the base as n limbs
 * and below m, the exponent as any number of bytes.  The modulus must be
 * odd and at most MAX_LIMBS limbs.  Multiplication is CIOS (coarsely
 * integrated operand scanning) on 64-bit limbs with unsigned __int128
 * products; the exponent is read in fixed windows of WINDOW bits from
 * the top, against a table of base^0 .. base^(2^WINDOW - 1).
 *
 * Caveat, as for repro.security.keys: no constant-time arithmetic.  Zero
 * windows skip their multiply and the final subtraction is conditional,
 * so the time taken depends on the exponent and the operands.
 */
#include <stdint.h>
#include <string.h>

#define MAX_LIMBS 16
#define WINDOW 4

typedef unsigned __int128 u128;

static void get_limbs(uint64_t *dst, const unsigned char *src, int64_t n)
{
    for (int64_t j = 0; j < n; j++) {
        uint64_t w = 0;
        for (int b = 7; b >= 0; b--)
            w = w << 8 | src[8 * j + b];
        dst[j] = w;
    }
}

/* r = a * b / R mod m for a, b < m; r may alias a or b.  Each pass adds
 * a * b[i] and mu * m to t in one sweep, two carry chains abreast, and
 * shifts t down a limb (mu makes the low limb zero). */
static void mont_mul(uint64_t *r, const uint64_t *a, const uint64_t *b,
                     const uint64_t *m, uint64_t m0inv, int64_t n)
{
    uint64_t t[MAX_LIMBS + 1];
    memset(t, 0, (size_t)(n + 1) * sizeof *t);
    for (int64_t i = 0; i < n; i++) {
        u128 c1 = (u128)a[0] * b[i] + t[0];
        uint64_t mu = (uint64_t)c1 * m0inv;
        u128 c2 = (u128)mu * m[0] + (uint64_t)c1;
        for (int64_t j = 1; j < n; j++) {
            c1 = (u128)a[j] * b[i] + t[j] + (uint64_t)(c1 >> 64);
            c2 = (u128)mu * m[j] + (uint64_t)c1 + (uint64_t)(c2 >> 64);
            t[j - 1] = (uint64_t)c2;
        }
        c1 = (u128)t[n] + (uint64_t)(c1 >> 64) + (uint64_t)(c2 >> 64);
        t[n - 1] = (uint64_t)c1;
        t[n] = (uint64_t)(c1 >> 64);
    }
    /* t < 2m: subtract m once when t >= m */
    int64_t j = n - 1;
    while (t[n] == 0 && j > 0 && t[j] == m[j])
        j--;
    int ge = t[n] != 0 || t[j] >= m[j];
    uint64_t borrow = 0;
    for (j = 0; j < n; j++) {
        u128 d = (u128)t[j] - (ge ? m[j] : 0) - borrow;
        r[j] = (uint64_t)d;
        borrow = (uint64_t)(d >> 64) & 1;
    }
}

/* WINDOW exponent bits from bit `at` up, bits at or past `bits` read 0. */
static unsigned window(const unsigned char *e, int64_t at, int64_t bits)
{
    unsigned d = 0;
    for (int64_t k = at + WINDOW - 1; k >= at; k--)
        d = d << 1 | (k < bits ? (e[k >> 3] >> (k & 7)) & 1u : 0u);
    return d;
}

/* out = base^exp mod m. */
void repro_modexp(unsigned char *out, const unsigned char *base,
                  const unsigned char *exp, int64_t exp_bytes,
                  const unsigned char *mod, const unsigned char *r2, int64_t n)
{
    uint64_t m[MAX_LIMBS], rr[MAX_LIMBS], acc[MAX_LIMBS];
    uint64_t table[1 << WINDOW][MAX_LIMBS];
    get_limbs(m, mod, n);
    get_limbs(rr, r2, n);
    uint64_t inv = m[0]; /* m^-1 mod 2^64 by Newton: 3, 6, ..., 96 bits */
    for (int k = 0; k < 5; k++)
        inv *= 2 - m[0] * inv;
    uint64_t m0inv = 0 - inv;

    memset(acc, 0, (size_t)n * sizeof *acc);
    acc[0] = 1;
    mont_mul(table[0], acc, rr, m, m0inv, n); /* R mod m: one, in Montgomery form */
    get_limbs(acc, base, n);
    mont_mul(table[1], acc, rr, m, m0inv, n);
    for (int d = 2; d < 1 << WINDOW; d++)
        mont_mul(table[d], table[d - 1], table[1], m, m0inv, n);

    int64_t bits = 8 * exp_bytes;
    while (bits > 0 && !((exp[(bits - 1) >> 3] >> ((bits - 1) & 7)) & 1))
        bits--;
    memcpy(acc, table[0], (size_t)n * sizeof *acc);
    for (int64_t at = (bits + WINDOW - 1) / WINDOW * WINDOW - WINDOW; at >= 0; at -= WINDOW) {
        if (at + WINDOW < bits)
            for (int k = 0; k < WINDOW; k++)
                mont_mul(acc, acc, acc, m, m0inv, n);
        unsigned d = window(exp, at, bits);
        if (d)
            mont_mul(acc, acc, table[d], m, m0inv, n);
    }

    memset(rr, 0, (size_t)n * sizeof *rr);
    rr[0] = 1;
    mont_mul(acc, acc, rr, m, m0inv, n); /* out of Montgomery form */
    for (int64_t j = 0; j < n; j++)
        for (int b = 0; b < 8; b++)
            out[8 * j + b] = (unsigned char)(acc[j] >> (8 * b));
}
