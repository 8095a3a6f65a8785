/* Fused slot-loop kernels for the batched allocation engine.
 *
 * Compiled at runtime by repro.sim.fastpath (plain cc, no build system)
 * and loaded through ctypes.  Every kernel must be *bit-identical* to
 * the numpy reference expressions in repro.core.allocation /
 * repro.sim.engine; fastpath.py fuzzes that equivalence at load time
 * and refuses the library on any mismatch, so nothing here is allowed
 * to be "close enough".
 *
 * Two rules keep the bits in line:
 *
 *  - Reductions replicate numpy's pairwise_sum_DOUBLE exactly (8-way
 *    unrolled 128-element blocks, recursive halving at multiples of 8).
 *    numpy fixes the summation *order* by construction, so the same
 *    order in C yields the same rounding.
 *  - The build uses -ffp-contract=off: the reference performs multiply
 *    and add as two rounded operations, so a fused multiply-add here
 *    would change results by an ulp.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define PW_BLOCKSIZE 128

/* numpy's pairwise_sum_DOUBLE for a contiguous buffer. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    else if (n <= PW_BLOCKSIZE) {
        double r[8], res;
        int64_t i;
        for (int k = 0; k < 8; k++) {
            r[k] = a[k];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int k = 0; k < 8; k++) {
                r[k] += a[i + k];
            }
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res += a[i];
        }
        return res;
    }
    else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

double repro_pairwise_sum(const double *a, int64_t n)
{
    return pairwise_sum(a, n);
}

/* Shared tail of both allocators: the enforce_feasibility() chain for a
 * row that already went through clip+mask (values are the proposal with
 * non-requesters zeroed).  cap > 0 is guaranteed by the callers. */
static void feasibility_tail(double *o, int64_t n, double cap)
{
    double t2 = pairwise_sum(o, n);
    if (t2 > cap) {
        double s2 = cap / t2;
        for (int64_t j = 0; j < n; j++) {
            o[j] *= s2;
        }
        if (pairwise_sum(o, n) > cap) {
            /* np.diff(np.minimum(np.cumsum(o), cap), prepend=0.0) */
            double run = 0.0, prev = 0.0;
            for (int64_t j = 0; j < n; j++) {
                run += o[j];
                double m = run < cap ? run : cap;
                o[j] = m - prev;
                prev = m;
            }
        }
    }
}

/* Shared body of both allocators: o = enforce_feasibility(cap * w / tot,
 * cap, req), or zeros when tot or cap is not positive.  Multiply before
 * dividing, like the numpy reference (capacity * weights / total): cap
 * * w stays finite even when tot is subnormal, where cap / tot would
 * overflow.  The arithmetic loop is kept branch-free so it vectorises;
 * the mask pass mirrors enforce_feasibility zeroing non-requesters
 * after the arithmetic.  w may be o. */
static void scaled_row(double *o, const double *w, double tot,
                       const uint8_t *req, int64_t n, double cap)
{
    if (tot <= 0.0 || cap <= 0.0) {
        for (int64_t j = 0; j < n; j++) {
            o[j] = 0.0;
        }
        return;
    }
    for (int64_t j = 0; j < n; j++) {
        o[j] = cap * w[j] / tot;
    }
    for (int64_t j = 0; j < n; j++) {
        if (!req[j]) {
            o[j] = 0.0;
        }
    }
    feasibility_tail(o, n, cap);
}

/* Equation (2) + feasibility for a batch of peers sharing the engine's
 * ledger matrix.  For each listed row i:
 *
 *   w      = where(req, ledger[i], 0)
 *   tot    = pairwise(w)
 *   out[i] = enforce_feasibility(caps[r] * w / tot, caps[r], req)
 *
 * ledger: n*n row-major credits; req: n bytes (0/1); caps[r] pairs with
 * rows[r].  Only the listed rows of out are written.
 */
void repro_alloc_rows_eq2(const double *ledger, const uint8_t *req,
                          const double *caps, const int64_t *rows,
                          int64_t nrows, int64_t n, double *out)
{
    for (int64_t r = 0; r < nrows; r++) {
        int64_t i = rows[r];
        const double *cred = ledger + (uint64_t)i * n;
        double *o = out + (uint64_t)i * n;
        for (int64_t j = 0; j < n; j++) {
            o[j] = req[j] ? cred[j] : 0.0;
        }
        scaled_row(o, o, pairwise_sum(o, n), req, n, caps[r]);
    }
}

/* Equation (3) + feasibility: every row shares one pre-masked weight
 * vector (declared capacities of requesters) and its pairwise total. */
void repro_alloc_rows_shared(const double *weights, double total,
                             const uint8_t *req, const double *caps,
                             const int64_t *rows, int64_t nrows, int64_t n,
                             double *out)
{
    for (int64_t r = 0; r < nrows; r++) {
        scaled_row(out + (uint64_t)rows[r] * n, weights, total, req, n,
                   caps[r]);
    }
}

/* ------------------------------------------------------------------ *
 * Sparse active-set kernels (the "sparse" engine).
 *
 * The dense vectors of the reference pipeline are represented by their
 * (sorted position, value) entries only; every reduction below replays
 * numpy's pairwise recursion over the *dense* extent, exploiting that
 * the absent cells are exactly +0.0 and x + 0.0 == x bitwise for the
 * non-negative values the engine sums (the python side guarantees no
 * -0.0 inputs).  Ledger rows are reached through address tables
 * (idx_addr/val_addr) published by repro.sim.sparse.SparseLedgers, and
 * forgetting decay is caught up lazily inside the kernels — each
 * missed feedback flush is one more in-place multiply, the same
 * rounded operations the reference ledger performed eagerly.
 *
 * The kernels are single-threaded (a slot's rows cost less than
 * starting a thread) and return a negative status, having written
 * nothing, when their plan cannot be allocated.
 * ------------------------------------------------------------------ */

/* numpy's pairwise recursion over the dense extent of one call's
 * positions, flattened once so that every sum of the call is a linear
 * replay (the recursion survives as the builder).  Leaf i takes the
 * next entries up to leaf[2i] into the eight accumulator lanes lane[k]
 * (the dense kernel's unrolled chains, keyed by position residue mod
 * 8) and the rest up to leaf[2i + 1] into the sequential tail past its
 * last multiple of 8 (a leaf shorter than 8 is all tail).  An all-zero
 * dense range is a leaf with no entries: it sums to +0.0, as every
 * branch of numpy's recursion does over it.  Add j sums nodes add[2j]
 * and add[2j + 1] (leaves first, then adds, in postorder), so a sum is
 * one pass over the leaves and one over the adds, into node[]; the
 * last node is the root. */
typedef struct {
    int64_t *leaf, *add;
    uint8_t *lane;
    double *node;
    int64_t cnt, nleaf, nadd, leaf_room, add_room;
} pw_plan;

/* Room for one more pair in *a (doubling); nonzero if out of memory. */
static int grow(int64_t **a, int64_t *room, int64_t used)
{
    int64_t *b;
    if (used < *room) {
        return 0;
    }
    b = realloc(*a, (size_t)*room * 4 * sizeof *b);
    if (!b) {
        return -1;
    }
    *a = b;
    *room *= 2;
    return 0;
}

/* Plan the dense extent `len` at offset `off`, whose entries are the
 * sorted positions pos[*k] onwards that fall below off + len (the walk
 * consumes them in order, so it needs no search).  Returns the node:
 * a leaf number, ~j for add j, or INT64_MIN when out of memory. */
static int64_t plan_build(pw_plan *p, const int64_t *pos, int64_t *k,
                          int64_t off, int64_t len)
{
    int64_t half, left, right, j = *k, cnt = p->cnt;
    if (j == cnt || pos[j] >= off + len || len <= PW_BLOCKSIZE) {
        uint8_t *lane = p->lane;
        if (grow(&p->leaf, &p->leaf_room, p->nleaf)) {
            return INT64_MIN;
        }
        for (; j < cnt && pos[j] < off + len - len % 8; j++) {
            lane[j] = (uint8_t)((pos[j] - off) & 7);
        }
        p->leaf[2 * p->nleaf] = j;
        for (; j < cnt && pos[j] < off + len; j++) {
        }
        p->leaf[2 * p->nleaf + 1] = *k = j;
        return p->nleaf++;
    }
    half = len / 2;
    half -= half % 8;
    left = plan_build(p, pos, k, off, half);
    right = left == INT64_MIN ? INT64_MIN
                              : plan_build(p, pos, k, off + half, len - half);
    if (right == INT64_MIN || grow(&p->add, &p->add_room, p->nadd)) {
        return INT64_MIN;
    }
    p->add[2 * p->nadd] = left;
    p->add[2 * p->nadd + 1] = right;
    return ~p->nadd++;
}

static void plan_free(pw_plan *p)
{
    free(p->leaf);
    free(p->add);
    free(p->lane);
    free(p->node);
}

/* The plan of `cnt` sorted positions in a dense extent of `len`. */
static int plan_init(pw_plan *p, const int64_t *pos, int64_t cnt, int64_t len)
{
    int64_t k = 0;
    if (cnt < 0 || (uint64_t)cnt > SIZE_MAX / 64) {
        return -1;  /* the byte counts below would wrap */
    }
    p->cnt = cnt;
    p->nleaf = p->nadd = 0;
    /* No leaf of an extent of 128 or more is shorter than 64 cells. */
    p->leaf_room = p->add_room = 16 + (2 * cnt < len / 64 ? 2 * cnt : len / 64);
    p->leaf = malloc((size_t)p->leaf_room * 2 * sizeof *p->leaf);
    p->add = malloc((size_t)p->add_room * 2 * sizeof *p->add);
    p->lane = malloc((size_t)cnt + 1);
    p->node = NULL;
    if (!p->leaf || !p->add || !p->lane
        || plan_build(p, pos, &k, 0, len) == INT64_MIN
        || !(p->node = malloc((size_t)(p->nleaf + p->nadd) * sizeof(double)))) {
        plan_free(p);
        return -1;
    }
    for (int64_t j = 0; j < 2 * p->nadd; j++) {
        if (p->add[j] < 0) {
            p->add[j] = p->nleaf + ~p->add[j];
        }
    }
    return 0;
}

/* The dense pairwise sum of the plan's extent, v[k] at entry k. */
static double plan_sum(const pw_plan *p, const double *v)
{
    double *node = p->node;
    int64_t k = 0;
    if (!p->cnt) {
        return 0.;
    }
    for (int64_t i = 0; i < p->nleaf; i++) {
        int64_t lane_end = p->leaf[2 * i], end = p->leaf[2 * i + 1];
        if (end - k <= 2) {
            /* Up to two entries, wherever they sit: every other add of
             * the lanes, the tree and the tail is x + +0.0 with x not
             * -0.0, an identity, which leaves (0. + a) + b.  Both loads
             * are in bounds (cnt > 0): selects, not branches. */
            double a = v[end > k ? k : 0], b = v[end > k + 1 ? k + 1 : 0];
            node[i] = (0. + (end > k ? a : 0.)) + (end > k + 1 ? b : 0.);
        }
        else {
            double r[8] = {0., 0., 0., 0., 0., 0., 0., 0.};
            double res;
            for (; k < lane_end; k++) {
                r[p->lane[k]] += v[k];
            }
            res = ((r[0] + r[1]) + (r[2] + r[3]))
                + ((r[4] + r[5]) + (r[6] + r[7]));
            for (; k < end; k++) {
                res += v[k];
            }
            node[i] = res;
        }
        k = end;
    }
    for (int64_t j = 0; j < p->nadd; j++) {
        node[p->nleaf + j] = node[p->add[2 * j]] + node[p->add[2 * j + 1]];
    }
    return node[p->nleaf + p->nadd - 1];
}

int64_t repro_sparse_pairwise(const int64_t *pos, const double *val,
                              int64_t cnt, int64_t len, double *out)
{
    pw_plan plan;
    if (plan_init(&plan, pos, cnt, len)) {
        return -1;
    }
    *out = plan_sum(&plan, val);
    plan_free(&plan);
    return 0;
}

/* Lazy forgetting catch-up for one sparse row: one in-place multiply
 * per missed flush — the exact rounded ops of the eager reference. */
static void catch_up_row(int64_t i, double *val, int64_t cnt,
                         const double *forgetting, int64_t epoch,
                         int64_t *stamps)
{
    int64_t lag = epoch - stamps[i];
    if (lag > 0) {
        double f = forgetting[i];
        if (f < 1.0) {
            for (int64_t t = 0; t < lag; t++) {
                for (int64_t j = 0; j < cnt; j++) {
                    val[j] *= f;
                }
            }
        }
        stamps[i] = epoch;
    }
}

/* o = enforce_feasibility(cap * w / tot, cap) over the compact request
 * set, or zeros when tot is not positive (cap > 0 is guaranteed).  The
 * clip of negative proposals is a no-op for credits; every reduction
 * replays the dense sum and the rare cumsum-clamp is compaction-safe
 * (the dense running sum never crosses cap at an absent cell).  w may
 * be o. */
static void sparse_row(double *o, const double *w, double tot,
                       const pw_plan *p, int64_t A, double cap)
{
    double t2;
    for (int64_t a = 0; a < A; a++) {
        o[a] = tot > 0.0 ? cap * w[a] / tot : 0.0;
        if (o[a] < 0.0) {
            o[a] = 0.0;
        }
    }
    if (tot <= 0.0) {
        return;
    }
    t2 = plan_sum(p, o);
    if (t2 > cap) {
        double s2 = cap / t2;
        for (int64_t a = 0; a < A; a++) {
            o[a] *= s2;
        }
        if (plan_sum(p, o) > cap) {
            double run = 0.0, prev = 0.0;
            for (int64_t a = 0; a < A; a++) {
                double m;
                run += o[a];
                m = run < cap ? run : cap;
                o[a] = m - prev;
                prev = m;
            }
        }
    }
}

/* Equation (2) rows: for each active giver act[r], gather its credits
 * at the requesters R (explicit entries over the decayed background),
 * total them with the dense-extent pairwise sum, then cap*w/tot and
 * the feasibility chain — all written into M[rowpos[r]].
 *
 * A "cold" row has no explicit entry at any requester, so it is a
 * function of (background, cap) alone: the first cold row of each
 * distinct bit-pattern pair is computed, the others copy it (an
 * open-addressing table of row numbers, keyed on both patterns).
 * Returns the number of copied rows. */
int64_t repro_sparse_rows_eq2(const int64_t *act, const int64_t *rowpos,
                              int64_t nact, const int64_t *R, int64_t A,
                              int64_t n, const double *caps,
                              const double *background,
                              const double *forgetting, int64_t epoch,
                              int64_t *stamps, int64_t *nnz,
                              const int64_t *idx_addr, const int64_t *val_addr,
                              double *M)
{
    pw_plan plan;
    int64_t size = 16, copied = 0, *memo;
    while (size < 2 * nact) {
        size *= 2;
    }
    if (plan_init(&plan, R, A, n)) {
        return -1;
    }
    memo = malloc((size_t)size * sizeof *memo);
    if (!memo) {
        plan_free(&plan);
        return -1;
    }
    memset(memo, 0xff, (size_t)size * sizeof *memo);  /* all -1: empty */
    for (int64_t r = 0; r < nact; r++) {
        int64_t i = act[r], cnt = nnz[i], warm = 0;
        double cap = caps[r], bg = background[i];
        double *o = M + rowpos[r] * A;
        if (cnt > 0) {
            const int64_t *idx = (const int64_t *)idx_addr[i];
            double *vals = (double *)val_addr[i];
            int64_t p = 0;
            catch_up_row(i, vals, cnt, forgetting, epoch, stamps);
            for (int64_t a = 0; a < A; a++) {
                int64_t col = R[a];
                while (p < cnt && idx[p] < col) {
                    p++;
                }
                if (p < cnt && idx[p] == col) {
                    o[a] = vals[p];
                    warm = 1;
                }
                else {
                    o[a] = bg;
                }
            }
        }
        if (!warm) {
            uint64_t kb, kc, s;
            int64_t e;
            memcpy(&kb, &bg, sizeof kb);
            memcpy(&kc, &cap, sizeof kc);
            s = ((kb * 0x9E3779B97F4A7C15ull) ^ kc) * 0xC2B2AE3D27D4EB4Full;
            s >>= 40;
            for (; (e = memo[s & (size - 1)]) >= 0; s++) {
                if (!memcmp(&background[act[e]], &bg, sizeof bg)
                    && !memcmp(&caps[e], &cap, sizeof cap)) {
                    break;
                }
            }
            if (e >= 0) {
                memcpy(o, M + rowpos[e] * A, (size_t)A * sizeof *o);
                copied++;
                continue;
            }
            memo[s & (size - 1)] = r;
            if (cnt <= 0) {
                for (int64_t a = 0; a < A; a++) {
                    o[a] = bg;
                }
            }
        }
        sparse_row(o, o, plan_sum(&plan, o), &plan, A, cap);
    }
    free(memo);
    plan_free(&plan);
    return copied;
}

/* Equation (3) rows: one shared weight vector wR at R and its dense
 * pairwise total (rows are zero when it is not positive).  Declared
 * capacities may be negative (lies go both ways), so clip like
 * enforce_feasibility before summing. */
int64_t repro_sparse_rows_shared(const int64_t *rowpos, int64_t nact,
                                 const int64_t *R, int64_t A, int64_t n,
                                 const double *wR, const double *caps,
                                 double *M)
{
    pw_plan plan;
    double total;
    if (plan_init(&plan, R, A, n)) {
        return -1;
    }
    total = plan_sum(&plan, wR);
    for (int64_t r = 0; r < nact; r++) {
        sparse_row(M + rowpos[r] * A, wR, total, &plan, A, caps[r]);
    }
    plan_free(&plan);
    return 0;
}

/* Fused feedback scatter: receiver R[a] gains M[r][a] * weight from
 * every active giver act[r].  Rows whose explicit entries already
 * contain every active giver take the in-place path (catch-up decay,
 * then one multiply + one add per cell, the reference's two-op
 * rounding); anything else — first contact (new entries), empty rows,
 * dense islands — reports ok=0 and is merged by the python store. */
void repro_sparse_scatter(const int64_t *act, int64_t nact,
                          const int64_t *R, int64_t A, const double *M,
                          double weight, const double *forgetting,
                          int64_t epoch, int64_t *stamps, int64_t *nnz,
                          const int64_t *idx_addr, const int64_t *val_addr,
                          uint8_t *ok)
{
    for (int64_t a = 0; a < A; a++) {
        int64_t j = R[a];
        int64_t cnt = nnz[j];
        const int64_t *idx;
        double *vals;
        int64_t p = 0, contained = 1;
        ok[a] = 0;
        if (cnt < nact) {   /* covers empty (0) and dense island (-1) */
            continue;
        }
        idx = (const int64_t *)idx_addr[j];
        vals = (double *)val_addr[j];
        for (int64_t r = 0; r < nact && contained; r++) {
            while (p < cnt && idx[p] < act[r]) {
                p++;
            }
            contained = p < cnt && idx[p++] == act[r];
        }
        if (!contained) {
            continue;
        }
        catch_up_row(j, vals, cnt, forgetting, epoch, stamps);
        p = 0;
        for (int64_t r = 0; r < nact; r++) {
            while (idx[p] < act[r]) {
                p++;
            }
            vals[p++] += M[r * A + a] * weight;
        }
        ok[a] = 1;
    }
}

/* led += alloc.T * w over the requesters' ledger rows only.
 *
 * Precondition: every row of alloc has passed feasibility, so the
 * column of a non-requester j is +0.0 in every row (scaled_row,
 * enforce_feasibility_rows and enforce_feasibility all zero it), every
 * ledger entry is +0.0 or positive (never -0.0), and w is finite.  Then
 * the reference's led[j][i] + (+0.0 * w) is led[j][i] bit for bit, and
 * skipping row j changes nothing.  A requester's row sees exactly
 * one multiply and one add per element, the reference's
 * `pending += alloc.T * weight` two-op rounding.
 *
 * Tiles are TADD_ROWS alloc rows by TADD_COLS ledger rows: at a
 * power-of-two n, 64 alloc rows one stride apart share a handful of L1
 * sets, 16 of them fit. */
#define TADD_ROWS 16
#define TADD_COLS 128

void repro_ledger_tadd(double *led, const double *alloc, const uint8_t *req,
                       int64_t n, double w)
{
    int64_t js[TADD_COLS];
    for (int64_t jb = 0; jb < n; jb += TADD_COLS) {
        int64_t jend = jb + TADD_COLS < n ? jb + TADD_COLS : n;
        int64_t m = 0;
        for (int64_t j = jb; j < jend; j++) {
            js[m] = j;
            m += req[j] != 0;
        }
        for (int64_t ib = 0; ib < n; ib += TADD_ROWS) {
            int64_t iend = ib + TADD_ROWS < n ? ib + TADD_ROWS : n;
            for (int64_t k = 0; k < m; k++) {
                int64_t j = js[k];
                double *lrow = led + (uint64_t)j * n;
                for (int64_t i = ib; i < iend; i++) {
                    lrow[i] += alloc[(uint64_t)i * n + j] * w;
                }
            }
        }
    }
}
