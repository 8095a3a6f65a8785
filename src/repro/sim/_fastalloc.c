/* Fused slot-loop kernels for the batched and sparse allocation engines.
 *
 * Compiled at runtime by repro.sim.fastpath (plain cc, no build system)
 * and loaded through ctypes.  Every kernel must equal the numpy
 * reference in repro.core.apportion / repro.sim.shard bit for bit;
 * fastpath.py fuzzes that at load time and refuses the library on any
 * mismatch.
 *
 * Both engines write a slot's grants as one compact block M (givers x
 * the A requesters R, row-major): a grant to a non-requester is 0, so
 * no kernel reads or writes those columns.  The batched engine's rows
 * gather its dense ledger rows at R, the sparse engine's walk sorted
 * ledger entries; Equation (3) rows are one kernel for both.
 *
 * Grants, capacities and ledgers are whole bytes (int64), so equality
 * is a property of the arithmetic, not of an operation order: integer
 * sums are exact in any order.  Two rules keep it that way:
 *
 *  - apportion() is repro.core.apportion.apportion: cumulative floor,
 *    floor(cap * P_j / W) per prefix P_j, from a double quotient
 *    corrected with exact arithmetic — in int64, or in double while
 *    every product stays below 2^53 — never a 64-bit integer division
 *    per entry, which does not vectorise.  Its guard, (cap + 1)
 *    * W <= INT64_MAX and cap <= 2^50, keeps every product exact; a
 *    kernel that meets a row outside it returns -1 having written
 *    nothing the caller reads.
 *  - Floats appear only where the numpy side spells the same double
 *    operation: a ledger credit is (int64_t)((double)grant * w) and a
 *    forgetting decay (int64_t)((double)count * f), truncations of
 *    non-negative values, i.e. floors; the history="none" rate sums
 *    add each requester's rate (and rate less capacity) as numpy's
 *    scatter-add does, one IEEE addition per element.
 *
 * The sparse engine's credit phase is two calls: the scatter over the
 * requesters' sorted entries (a row holding exactly the active givers,
 * the steady state, is compared and added straight through) and the
 * rate fold, one pass over the requesters.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAX_RATE ((int64_t)1 << 50)

/* P[0..k) holds the prefix sums of a row's weights, total W = P[k-1];
 * replace them with the row's grants of cap.  Zero grants when W or cap
 * is not positive.  Two passes — floor quotients, then differences — so
 * the first, the costly one, has no loop-carried dependency and
 * vectorises. */
static int apportion(int64_t *P, int64_t k, int64_t cap)
{
    int64_t W = k ? P[k - 1] : 0;
    double ratio;
    if (W <= 0 || cap <= 0) {
        memset(P, 0, (size_t)k * sizeof *P);
        return 0;
    }
    if (cap > MAX_RATE || W > INT64_MAX / (cap + 1)) {
        return -1;
    }
    ratio = (double)cap / (double)W;
    if ((double)cap * (double)W < 0x1p52) {
        /* Every cap * P and q * W is then exact in double, and so is
         * their difference: the same floor and correction in double
         * lanes, cheaper than 64-bit integer multiplies. */
        double c = (double)cap, Wd = (double)W, inv = 1.0 / Wd;
        for (int64_t j = 0; j < k; j++) {
            double x = (double)P[j] * c;
            int64_t q = (int64_t)(x * inv);
            double rem = x - (double)q * Wd;
            q -= rem < 0.0;
            q += rem >= Wd;
            P[j] = q;
        }
    }
    else {
        for (int64_t j = 0; j < k; j++) {
            int64_t q = (int64_t)((double)P[j] * ratio);
            int64_t rem = cap * P[j] - q * W;
            q -= rem < 0;
            q += rem >= W;
            P[j] = q;
        }
    }
    for (int64_t j = k - 1; j > 0; j--) {
        P[j] -= P[j - 1];
    }
    return 0;
}

/* In place: w[0..k) becomes its prefix sums. */
static void prefix(int64_t *w, int64_t k)
{
    for (int64_t j = 1; j < k; j++) {
        w[j] += w[j - 1];
    }
}

/* A ledger credit: grant bytes per second over a slot of w seconds. */
static inline int64_t credit(int64_t g, double w)
{
    return w == 1.0 ? g : (int64_t)((double)g * w);
}

/* Equation (2) rows of the batched engine, into the compact block out
 * (givers x requesters R, A = |R| columns): for each listed row i, the
 * prefix sums of its dense ledger row's counts at R land in out[i] and
 * caps[r] is apportioned over them in place.  A row holding no byte
 * from any requester splits equally.  Returns 0, or -1 when a row is
 * outside the guard. */
int64_t repro_alloc_rows_eq2(const int64_t *ledger, const int64_t *R,
                             int64_t A, const int64_t *caps,
                             const int64_t *rows, int64_t nrows, int64_t n,
                             int64_t *out)
{
    for (int64_t r = 0; r < nrows; r++) {
        const int64_t *cred = ledger + (uint64_t)rows[r] * n;
        int64_t *o = out + (uint64_t)rows[r] * A, P = 0;
        for (int64_t a = 0; a < A; a++) {
            P += cred[R[a]];
            o[a] = P;
        }
        if (!P) {
            for (int64_t a = 0; a < A; a++) {
                o[a] = a + 1;
            }
        }
        if (apportion(o, A, caps[r])) {
            return -1;
        }
    }
    return 0;
}

/* Equation (3) rows, in either engine: one shared weight vector wR at
 * the requesters (the declared capacities in bytes), apportioned into
 * the compact row M[rows[r]] for each listed row. */
int64_t repro_rows_shared(const int64_t *rows, int64_t nrows, int64_t A,
                          const int64_t *wR, const int64_t *caps, int64_t *M)
{
    for (int64_t r = 0; r < nrows; r++) {
        int64_t *o = M + rows[r] * A;
        memcpy(o, wR, (size_t)A * sizeof *o);
        prefix(o, A);
        if (apportion(o, A, caps[r])) {
            return -1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ *
 * Sparse active-set kernels (the "sparse" engine).
 *
 * Rows of the compact block M (active givers x requesters R) are
 * written directly.  Ledger rows are reached through a store's row
 * records, bound once per store by repro.sim.sparse.SparseLedgers, and
 * forgetting decay is caught up lazily inside the kernels: one floor
 * per missed feedback flush, the eager reference's operations.
 * ------------------------------------------------------------------ */

/* One row of a sparse store: its entries (-1 for a dense island), its
 * sorted index and value arrays, the epoch its values were decayed to
 * and its forgetting factor — one record, so a kernel visiting a row
 * reads one or two cache lines of it. */
struct ledger_row {
    int64_t nnz;
    const int64_t *idx;
    int64_t *vals;
    int64_t stamp;
    double forgetting;
};

/* A sparse store's row records and its epoch, the feedback flushes so
 * far. */
struct ledger_rows {
    struct ledger_row *row;
    int64_t epoch;
};

static void catch_up_row(const struct ledger_rows *s, struct ledger_row *row)
{
    int64_t lag = s->epoch - row->stamp;
    if (lag > 0) {
        double f = row->forgetting;
        int64_t *vals = row->vals, cnt = row->nnz;
        if (f < 1.0) {
            for (int64_t t = 0; t < lag; t++) {
                for (int64_t j = 0; j < cnt; j++) {
                    vals[j] = (int64_t)((double)vals[j] * f);
                }
            }
        }
        row->stamp = s->epoch;
    }
}

/* Equation (2) rows: for each active giver act[r], gather the prefix
 * sums of its counts at the requesters R into M[rowpos[r]] and
 * apportion caps[r] over them.
 * A cold row (no byte from any requester) splits equally, so it is a
 * function of its capacity alone: the first cold row of each capacity
 * is computed and the others copy it (an open-addressing table of row
 * numbers).  Returns the number of copied rows, -1 when a row is
 * outside the guard, or -2 when the table cannot be allocated. */
int64_t repro_sparse_rows_eq2(const int64_t *act, const int64_t *rowpos,
                              int64_t nact, const int64_t *R, int64_t A,
                              const int64_t *caps, const struct ledger_rows *s,
                              int64_t *M)
{
    int64_t size = 16, copied = 0, *memo;
    while (size < 2 * nact) {
        size *= 2;
    }
    memo = malloc((size_t)size * sizeof *memo);
    if (!memo) {
        return -2;
    }
    memset(memo, 0xff, (size_t)size * sizeof *memo);  /* all -1: empty */
    for (int64_t r = 0; r < nact; r++) {
        struct ledger_row *row = &s->row[act[r]];
        int64_t cnt = row->nnz, W = 0, cap = caps[r];
        int64_t *o = M + rowpos[r] * A;
        if (cnt > 0) {
            const int64_t *idx = row->idx, *vals = row->vals;
            int64_t p = 0;
            catch_up_row(s, row);
            for (int64_t a = 0; a < A; a++) {
                int64_t col = R[a];
                while (p < cnt && idx[p] < col) {
                    p++;
                }
                W += p < cnt && idx[p] == col ? vals[p] : 0;
                o[a] = W;   /* the prefix sums of the counts at R */
            }
        }
        if (!W) {
            uint64_t s = ((uint64_t)cap * 0x9E3779B97F4A7C15ull) >> 40;
            int64_t e;
            for (; (e = memo[s & (size - 1)]) >= 0; s++) {
                if (caps[e] == cap) {
                    break;
                }
            }
            if (e >= 0) {
                memcpy(o, M + rowpos[e] * A, (size_t)A * sizeof *o);
                copied++;
                continue;
            }
            memo[s & (size - 1)] = r;
            for (int64_t a = 0; a < A; a++) {
                o[a] = a + 1;
            }
        }
        if (apportion(o, A, cap)) {
            copied = -1;
            break;
        }
    }
    free(memo);
    return copied;
}

/* Fused feedback scatter: receiver R[a] gains credit(M[r][a], w) from
 * every active giver act[r].  A row holding exactly the active givers
 * (the steady state: nnz == nact and the indices equal act) adds
 * straight through; any other row whose explicit entries contain every
 * active giver takes the in-place path in two walks (the contain check,
 * then the adds).  Either way the row's lazy decay is caught up before
 * its adds.  Anything else — first contact (new entries), empty rows,
 * dense islands — reports ok=0 and is merged by the python store. */
void repro_sparse_scatter(const int64_t *act, int64_t nact,
                          const int64_t *R, int64_t A, const int64_t *M,
                          double w, const struct ledger_rows *s, uint8_t *ok)
{
    for (int64_t a = 0; a < A; a++) {
        struct ledger_row *row = &s->row[R[a]];
        int64_t cnt = row->nnz;
        const int64_t *idx = row->idx;
        int64_t *vals = row->vals;
        int64_t p = 0, contained = 1;
        ok[a] = 0;
        if (cnt < nact) {   /* covers empty (0) and dense island (-1) */
            continue;
        }
        if (cnt == nact && (!nact || !memcmp(idx, act, (size_t)nact * sizeof *idx))) {
            catch_up_row(s, row);
            for (int64_t r = 0; r < nact; r++) {
                vals[r] += credit(M[r * A + a], w);
            }
            ok[a] = 1;
            continue;
        }
        for (int64_t r = 0; r < nact && contained; r++) {
            while (p < cnt && idx[p] < act[r]) {
                p++;
            }
            contained = p < cnt && idx[p++] == act[r];
        }
        if (!contained) {
            continue;
        }
        catch_up_row(s, row);
        p = 0;
        for (int64_t r = 0; r < nact; r++) {
            while (idx[p] < act[r]) {
                p++;
            }
            vals[p++] += credit(M[r * A + a], w);
        }
        ok[a] = 1;
    }
}

/* The per-peer rate sums of a history="none" run
 * (repro.sim.shard.ClassFold), over the slot's requesters R (local rows,
 * sorted, unique) with their rates: rate_sum and, inside the report
 * window, window_rate_sum gain the rate; gain_sum gains the rate less
 * the capacity of the requester's class, cap_c[class_of[j]].  Each
 * element is numpy's own operation, so the sums stay bit-identical. */
void repro_rate_fold(const int64_t *class_of, double *rate_sum,
                     double *gain_sum, double *window_rate_sum,
                     const int64_t *R, int64_t A, const double *rates,
                     const double *cap_c, int64_t window)
{
    for (int64_t a = 0; a < A; a++) {
        int64_t j = R[a];
        double rate = rates[a];
        rate_sum[j] += rate;
        gain_sum[j] += rate - cap_c[class_of[j]];
        if (window) {
            window_rate_sum[j] += rate;
        }
    }
}

/* led[R[a]][i] += credit(M[i][a], w): the slot's compact grant block
 * M (n givers x A requesters) folded into the requesters' ledger rows;
 * no other row gains anything.  The same pass leaves M's column sums
 * in sums[a], requester R[a]'s grant total: the slot's rates, without a
 * second read of M.
 *
 * Tiles are TADD_ROWS rows of M by TADD_COLS requesters. */
#define TADD_ROWS 16
#define TADD_COLS 128

void repro_ledger_tadd(int64_t *led, const int64_t *M, const int64_t *R,
                       int64_t A, int64_t n, double w, int64_t *sums)
{
    memset(sums, 0, (size_t)A * sizeof *sums);
    for (int64_t ab = 0; ab < A; ab += TADD_COLS) {
        int64_t aend = ab + TADD_COLS < A ? ab + TADD_COLS : A;
        for (int64_t ib = 0; ib < n; ib += TADD_ROWS) {
            int64_t iend = ib + TADD_ROWS < n ? ib + TADD_ROWS : n;
            for (int64_t a = ab; a < aend; a++) {
                int64_t *lrow = led + (uint64_t)R[a] * n, s = 0;
                for (int64_t i = ib; i < iend; i++) {
                    int64_t g = M[(uint64_t)i * A + a];
                    lrow[i] += credit(g, w);
                    s += g;
                }
                sums[a] += s;
            }
        }
    }
}
