/* Compiled trace generation: the three paper workloads.
 *
 * generate() is a C translation of SyntheticWorkload.generate's
 * transaction loop for DatabaseWorkload, SpecJBBWorkload and
 * SpecWebWorkload (repro/workloads/{database,specjbb,specweb}.py),
 * together with CodeFootprint.call (codegen.py) and the Region,
 * RecentPool, ZipfSampler, ValueSites and BranchSites site models
 * (synthesis.py).  The helpers below mirror the Python Emitter, so each
 * script reads line for line like its Python method.  The Python
 * generators stay the oracle and the route for every other workload;
 * tests/test_generate_kernel.py holds both routes byte-identical.
 *
 * Random numbers.  Python runs setup(rng) and hands over the state of
 * its random.Random: CPython's MT19937, 624 words and a position.  The
 * kernel continues that draw sequence exactly:
 *   - random() is CPython's genrand_res53: two words a >> 5 and b >> 6
 *     give (a * 2^26 + b) / 2^53.  The kernel keeps the integer
 *     numerator (draw53), and Python turns every probability p into
 *     the threshold ceil(p * 2^53), so `random() < p` is an integer
 *     compare.  The kernel does no floating point;
 *   - getrandbits(k), k <= 32, is one word >> (32 - k);
 *   - randrange(n) is _randbelow(n): k = n.bit_length() bits, drawn
 *     again while r >= n.  randint(lo, hi) is lo + _randbelow(span),
 *     where Python passes span = hi - lo + 1;
 *   - ZipfSampler.sample is bisect_left(cumulative, random() * total).
 *     Python passes, per function, the smallest numerator whose point
 *     lies past that function's cumulative weight, so the sample is
 *     the count of thresholds at or below the draw.
 *
 * Data.  Every number the scripts use comes from Python in Params and
 * the program tables: constructor parameters, region geometry, pool
 * capacities, Zipf thresholds, the function templates and the
 * module-level motif constants.  This file hard-codes only control
 * flow, register numbers, PC offsets and the byte offsets of a field
 * inside a row or object.
 *
 * Sites.  Every value and branch site is a static PC, so each has a
 * dense id: a template op's index in the flattened program, then the
 * motif value sites (SITE_*) past it.  The motif branch sites are
 * always forced (force_bias, then outcome): one draw against the
 * forced bias, so they need no table entry.
 *
 * The kernel writes the first n rows and stops writing there.  The
 * transaction in flight runs to its end, as on the Python route
 * before it slices, but its later draws never reach a row.
 *
 * Shared names: the OP_* opcodes, the T_* template kinds, the
 * SCRIPT_* numbers and the Region/Params structs come from the header
 * repro.cbuild renders from the Python definitions
 * (repro/workloads/ckernel.py) and compiles ahead of this file.  Params
 * holds the scalars in GENERATE_CONTRACT order, then the regions; a
 * script reads only its own fields.  Thresholds are ceil(p * 2^53), and
 * a randint(lo, hi) is its lo and its span hi - lo + 1.  A Region is a
 * synthesis.Region: random_addr draws one of `slots` aligned words,
 * next_line walks `lines` lines from `cursor`.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REG_NONE (-1)

/* CPython's MT19937 (Modules/_randommodule.c). */
#define MT_N 624
#define MT_M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

/* Motif value sites, numbered past the template sites. */
#define SITE_DB_ROW 0
#define SITE_DB_ROW2 1
#define SITE_DB_CHASE 2
#define SITE_JBB_TABLE 0
#define SITE_JBB_FIELD 1
#define SITE_WEB_HEADER 0
#define SITE_WEB_PAYLOAD0 1
#define SITE_WEB_PAYLOAD1 2
#define SITE_WEB_LOOKUP 3
#define SITE_WEB_DESCRIPTOR 4
#define MOTIF_SITES 5

/* Registers of the motif scripts (the _CHASE ... constants). */
#define DB_CTR 5
#define DB_CHASE 8
#define DB_ROWBASE 9
#define DB_FIELD0 10
#define DB_FIELD1 11
#define DB_CMP 12
#define DB_LOCK 14
#define DB_LOGV 15
#define JBB_CTR 5
#define JBB_OBJ 8
#define JBB_FIELD 10
#define JBB_LOCK 14
#define JBB_ALLOC 15
#define WEB_CTR 5
#define WEB_BUF 8
#define WEB_CHK 10
#define WEB_DESC 12

/* A synthesis.RecentPool: a ring of the last `cap` lines. */
typedef struct {
    int64_t *lines;
    int64_t cap;
    int64_t len;
    int64_t cursor;
} Pool;

/* One synthesis.ValueSites stream: its sites' last values live in
 * Gen.last, keyed by site id. */
typedef struct {
    int64_t repeat;
    int64_t fresh;
} Values;

typedef struct {
    uint32_t *mt;          /* MT19937 words                          */
    int64_t mti;           /* next word; MT_N: regenerate first       */
    int64_t pc;            /* the Emitter's PC                        */
    int64_t row;           /* rows written                            */
    int64_t length;        /* rows wanted                             */
    int64_t nflat;
    int64_t nfuncs;
    int64_t fresh_stride;
    /* the trace columns */
    int8_t *op;
    int64_t *pcs;
    int16_t *dst;
    int16_t *src1;
    int16_t *src2;
    int16_t *src3;
    int64_t *addr;
    uint8_t *taken;
    int64_t *target;
    int64_t *value;
    /* the code footprint: nflat template ops, nfuncs functions */
    const int8_t *t_kind;
    const int16_t *t_a;
    const int16_t *t_b;
    const int16_t *t_c;
    const int32_t *t_arg;
    const int64_t *f_start;
    const int64_t *f_end;
    const int64_t *f_pc;
    const int64_t *zipf;
    /* site models */
    int64_t *last;         /* last value per value site, -1: none     */
    int64_t *bias;         /* bias threshold per branch site, -1: none */
    Values values;
    Values chase;
    Pool pool_a;
    Pool pool_b;
} Gen;

/* -- MT19937 ----------------------------------------------------------- */

/* genrand_uint32: the next tempered word. */
static uint32_t next_word(Gen *g)
{
    if (g->mti >= MT_N) {
        uint32_t y;
        for (int64_t kk = 0; kk < MT_N - MT_M; kk++) {
            y = (g->mt[kk] & UPPER_MASK) | (g->mt[kk + 1] & LOWER_MASK);
            g->mt[kk] = g->mt[kk + MT_M] ^ (y >> 1) ^
                        ((y & 1U) ? MATRIX_A : 0U);
        }
        for (int64_t kk = MT_N - MT_M; kk < MT_N - 1; kk++) {
            y = (g->mt[kk] & UPPER_MASK) | (g->mt[kk + 1] & LOWER_MASK);
            g->mt[kk] = g->mt[kk + MT_M - MT_N] ^ (y >> 1) ^
                        ((y & 1U) ? MATRIX_A : 0U);
        }
        y = (g->mt[MT_N - 1] & UPPER_MASK) | (g->mt[0] & LOWER_MASK);
        g->mt[MT_N - 1] = g->mt[MT_M - 1] ^ (y >> 1) ^
                          ((y & 1U) ? MATRIX_A : 0U);
        g->mti = 0;
    }
    uint32_t y = g->mt[g->mti];
    g->mti++;
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random() as its numerator: (a * 2^26 + b), below 2^53. */
/* certify: returns 0 .. (1 << 53) - 1 */
static int64_t draw53(Gen *g)
{
    int64_t a = next_word(g) >> 5;
    int64_t b = next_word(g) >> 6;
    return a * 67108864 + b;
}

/* _randbelow(n): getrandbits(n.bit_length()) until below n. */
/* certify: requires n >= 1 && n <= (1 << 32) - 1 */
/* certify: returns 0 .. (1 << 32) - 2 */
static int64_t randbelow(Gen *g, int64_t n)
{
    uint32_t shift = 32;  /* 32 - n.bit_length() */
    for (int64_t rest = n; rest > 0; rest = rest >> 1)
        shift--;
    uint32_t r = next_word(g) >> shift;
    while (r >= n)
        r = next_word(g) >> shift;
    return r;
}

/* randint(lo, lo + span - 1). */
/* certify: requires lo >= 0 && lo <= (1 << 16) */
/* certify: requires span >= 1 && span <= (1 << 32) - 1 */
/* certify: returns 0 .. (1 << 33) */
static int64_t randint(Gen *g, int64_t lo, int64_t span)
{
    return lo + randbelow(g, span);
}

/* -- site models ------------------------------------------------------- */

/* Region.random_addr. */
/* certify: returns 0 .. (1 << 41) */
static int64_t random_addr(Gen *g, const Region *r)
{
    return r->base + randbelow(g, r->slots) * r->word;
}

/* Region.next_line. */
/* certify: requires stride >= 0 && stride <= (1 << 32) */
/* certify: returns 0 .. (1 << 41) */
static int64_t next_line(Region *r, int64_t stride)
{
    int64_t line = r->base + r->cursor * r->line_bytes;
    r->cursor = (r->cursor + stride) % r->lines;
    return line;
}

/* RecentPool.insert. */
/* certify: requires line >= 0 && line <= (1 << 41) */
static void pool_insert(Pool *pool, int64_t line)
{
    if (pool->len < pool->cap) {
        pool->lines[pool->len] = line;
        pool->len++;
    } else {
        pool->lines[pool->cursor] = line;
        pool->cursor = (pool->cursor + 1) % pool->cap;
    }
}

/* RecentPool.sample: a random recent line, or -1 (None) without a
 * draw when the pool is empty. */
/* certify: returns -1 .. (1 << 41) */
static int64_t pool_sample(Gen *g, Pool *pool)
{
    if (pool->len == 0)
        return -1;
    int64_t r = randbelow(g, pool->len);
    /* certify: assume r <= pool->len - 1 -- randbelow(n) returns a value below n */
    return pool->lines[r];
}

/* ZipfSampler.sample: the number of thresholds at or below the draw. */
/* certify: returns 0 .. nfuncs - 1 */
static int64_t zipf_sample(Gen *g)
{
    int64_t m = draw53(g);
    int64_t lo = 0;
    int64_t hi = g->nfuncs - 1;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        /* certify: assume mid >= 0 && mid <= g->nfuncs - 2 -- 0 <= lo < hi <= nfuncs - 1 here, so the midpoint lies in [lo, hi - 1] */
        if (g->zipf[mid] <= m)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* ValueSites.value: repeat the site's last value, or hand out a fresh
 * one.  The repeat draw is skipped while the site has no value. */
/* certify: requires site >= 0 && site <= nflat + MOTIF_SITES - 1 */
/* certify: returns 0 .. (1 << 52) */
static int64_t site_value(Gen *g, Values *vs, int64_t site)
{
    int64_t last = g->last[site];
    if (last >= 0 && draw53(g) < vs->repeat)
        return last;
    int64_t value = vs->fresh;
    vs->fresh = value + g->fresh_stride;
    g->last[site] = value;
    return value;
}

/* BranchSites.outcome: assign the site a bias on first use, then draw. */
/* certify: requires site >= 0 && site <= nflat - 1 */
/* certify: returns 0 .. 1 */
static int outcome(Gen *g, const Params *p, int64_t site)
{
    int64_t bias = g->bias[site];
    if (bias < 0) {
        if (draw53(g) < p->predictable) {
            bias = p->strong;
            if (draw53(g) >= p->taken_side)
                bias = p->strong_not;
        } else {
            bias = p->weak;
            if (draw53(g) >= p->taken_side)
                bias = p->weak_not;
        }
        g->bias[site] = bias;
    }
    return draw53(g) < bias;
}

/* force_bias(site, bias) then outcome(site): one draw. */
/* certify: returns 0 .. 1 */
static int forced_outcome(Gen *g, int64_t bias)
{
    return draw53(g) < bias;
}

/* -- the Emitter --------------------------------------------------------- */

/* TraceBuilder.add_raw at the current PC; rows past the requested
 * length are dropped. */
/* certify: requires op >= 0 && op <= 8 */
/* certify: requires dst >= -1 && dst <= 63 */
/* certify: requires s1 >= -1 && s1 <= 63 */
/* certify: requires s2 >= -1 && s2 <= 63 */
/* certify: requires s3 >= -1 && s3 <= 63 */
/* certify: requires addr >= 0 && addr <= (1 << 42) */
/* certify: requires taken >= 0 && taken <= 1 */
/* certify: requires target >= 0 && target <= (1 << 42) */
/* certify: requires value >= 0 && value <= (1 << 52) */
static void put(Gen *g, int op, int64_t dst, int64_t s1, int64_t s2,
                int64_t s3, int64_t addr, int taken, int64_t target,
                int64_t value)
{
    if (g->row < g->length) {
        int64_t r = g->row;
        g->op[r] = (int8_t)op;
        g->pcs[r] = g->pc;
        g->dst[r] = (int16_t)dst;
        g->src1[r] = (int16_t)s1;
        g->src2[r] = (int16_t)s2;
        g->src3[r] = (int16_t)s3;
        g->addr[r] = addr;
        g->taken[r] = (uint8_t)taken;
        g->target[r] = target;
        g->value[r] = value;
        g->row = r + 1;
    }
}

/* certify: requires dst >= -1 && dst <= 63 */
/* certify: requires s1 >= -1 && s1 <= 63 */
/* certify: requires s2 >= -1 && s2 <= 63 */
static void alu(Gen *g, int64_t dst, int64_t s1, int64_t s2)
{
    put(g, OP_ALU, dst, s1, s2, REG_NONE, 0, 0, 0, 0);
    g->pc += 4;
}

static void nop(Gen *g)
{
    put(g, OP_NOP, REG_NONE, REG_NONE, REG_NONE, REG_NONE, 0, 0, 0, 0);
    g->pc += 4;
}

/* certify: requires dst >= -1 && dst <= 63 */
/* certify: requires addr >= 0 && addr <= (1 << 42) */
/* certify: requires s1 >= -1 && s1 <= 63 */
/* certify: requires value >= 0 && value <= (1 << 52) */
static void load(Gen *g, int64_t dst, int64_t addr, int64_t s1,
                 int64_t value)
{
    put(g, OP_LOAD, dst, s1, REG_NONE, REG_NONE, addr, 0, 0, value);
    g->pc += 4;
}

/* certify: requires addr >= 0 && addr <= (1 << 42) */
/* certify: requires data >= -1 && data <= 63 */
/* certify: requires s1 >= -1 && s1 <= 63 */
static void store(Gen *g, int64_t addr, int64_t data, int64_t s1)
{
    put(g, OP_STORE, REG_NONE, s1, REG_NONE, data, addr, 0, 0, 0);
    g->pc += 4;
}

/* certify: requires addr >= 0 && addr <= (1 << 42) */
/* certify: requires s1 >= -1 && s1 <= 63 */
static void prefetch(Gen *g, int64_t addr, int64_t s1)
{
    put(g, OP_PREFETCH, REG_NONE, s1, REG_NONE, REG_NONE, addr, 0, 0, 0);
    g->pc += 4;
}

/* CAS with value 0, as every script issues it. */
/* certify: requires dst >= -1 && dst <= 63 */
/* certify: requires addr >= 0 && addr <= (1 << 42) */
/* certify: requires s1 >= -1 && s1 <= 63 */
/* certify: requires data >= -1 && data <= 63 */
static void cas(Gen *g, int64_t dst, int64_t addr, int64_t s1,
                int64_t data)
{
    put(g, OP_CAS, dst, s1, REG_NONE, data, addr, 0, 0, 0);
    g->pc += 4;
}

static void membar(Gen *g)
{
    put(g, OP_MEMBAR, REG_NONE, REG_NONE, REG_NONE, REG_NONE, 0, 0, 0, 0);
    g->pc += 4;
}

/* Conditional branch; moves the PC along the actual path. */
/* certify: requires taken >= 0 && taken <= 1 */
/* certify: requires target >= 0 && target <= (1 << 42) */
/* certify: requires s1 >= -1 && s1 <= 63 */
static void branch(Gen *g, int taken, int64_t target, int64_t s1)
{
    put(g, OP_BRANCH, REG_NONE, s1, REG_NONE, REG_NONE, 0, taken, target,
        0);
    g->pc = taken ? target : g->pc + 4;
}

/* Unconditional transfer (an always-taken branch). */
/* certify: requires target >= 0 && target <= (1 << 42) */
static void jump(Gen *g, int64_t target)
{
    put(g, OP_BRANCH, REG_NONE, REG_NONE, REG_NONE, REG_NONE, 0, 1,
        target, 0);
    g->pc = target;
}

/* Emitter.call_block: jump to a motif block, return the PC after. */
/* certify: requires base >= 0 && base <= (1 << 42) */
/* certify: returns 0 .. (1 << 42) */
static int64_t call_block(Gen *g, int64_t base)
{
    int64_t ret = g->pc + 4;
    jump(g, base);
    return ret;
}

/* -- CodeFootprint.call ---------------------------------------------------- */

static void code_call(Gen *g, const Params *p)
{
    int64_t f = zipf_sample(g);
    int64_t start = g->f_start[f];
    int64_t end = g->f_end[f];
    int64_t base_pc = g->f_pc[f];
    int64_t return_pc = g->pc + 4;
    jump(g, base_pc);
    int64_t j = start;
    while (j < end) {
        int64_t pc = base_pc + (j - start) * 4;
        int kind = g->t_kind[j];
        g->pc = pc;
        if (kind == T_ALU) {
            alu(g, g->t_a[j], g->t_b[j], g->t_c[j]);
            j++;
        } else if (kind == T_LOAD) {
            int64_t addr = g->t_arg[j] ? random_addr(g, &p->warm)
                                       : random_addr(g, &p->hot);
            int64_t value = site_value(g, &g->values, j);
            load(g, g->t_a[j], addr, g->t_b[j], value);
            j++;
        } else if (kind == T_STORE) {
            int64_t addr = g->t_arg[j] ? random_addr(g, &p->warm)
                                       : random_addr(g, &p->hot);
            store(g, addr, g->t_a[j], g->t_b[j]);
            j++;
        } else if (kind == T_BRANCH) {
            int taken = outcome(g, p, j);
            int64_t skip = g->t_arg[j];
            branch(g, taken, g->pc + 4 * (skip + 1), g->t_a[j]);
            j += taken ? skip + 1 : 1;
        } else {
            nop(g);
            j++;
        }
    }
    jump(g, return_pc);
}

/* -- DatabaseWorkload ---------------------------------------------------- */

static void db_descent(Gen *g, Params *p)
{
    int64_t ret = call_block(g, p->descent_base);
    alu(g, DB_CHASE, 1, 7);
    int64_t depth = randint(g, p->descent_lo, p->descent_span);
    int64_t head = g->pc;
    for (int64_t level = 0; level < depth; level++) {
        g->pc = head;
        int64_t node = -1;
        if (draw53(g) < p->reuse)
            node = pool_sample(g, &g->pool_b);
        if (node < 0) {
            node = next_line(&p->index, p->descent_stride);
            pool_insert(&g->pool_b, node);
        }
        int64_t value = site_value(g, &g->chase,
                                   g->nflat + SITE_DB_CHASE);
        load(g, DB_CHASE, node, DB_CHASE, value);
        alu(g, DB_CMP, DB_CHASE, 1);
        int64_t branch_site = g->pc;
        int taken = forced_outcome(g, p->data_bias);
        branch(g, taken, branch_site + 12, DB_CMP);
        if (!taken) {
            alu(g, DB_FIELD0, DB_CMP, 7);
            alu(g, DB_CHASE, DB_CHASE, DB_FIELD0);
        }
        branch(g, level + 1 < depth, head, DB_CTR);
    }
    jump(g, ret);
}

static void db_rows(Gen *g, Params *p)
{
    int64_t ret = call_block(g, p->rows_base);
    int64_t count = randint(g, p->rows_lo, p->rows_span);
    int64_t head = g->pc;
    for (int64_t r = 0; r < count; r++) {
        g->pc = head;
        alu(g, DB_ROWBASE, 3, 7);
        int64_t row = -1;
        if (draw53(g) < p->reuse)
            row = pool_sample(g, &g->pool_a);
        if (row < 0) {
            row = next_line(&p->rows, p->row_stride);
            pool_insert(&g->pool_a, row);
        }
        int64_t value = site_value(g, &g->values, g->nflat + SITE_DB_ROW);
        load(g, DB_FIELD0, row, DB_ROWBASE, value);
        alu(g, DB_LOGV, DB_FIELD0, DB_LOGV);
        int second = draw53(g) < p->second_field;
        branch(g, !second, g->pc + 8, DB_CTR);
        if (second) {
            value = site_value(g, &g->values, g->nflat + SITE_DB_ROW2);
            load(g, DB_FIELD1, row + 64, DB_ROWBASE, value);
        }
        for (int64_t k = 0; k < p->row_spacing; k++)
            alu(g, 20 + (k & 7), 20 + ((k + 1) & 7), 1);
        branch(g, r + 1 < count, head, DB_CTR);
    }
    jump(g, ret);
}

static void db_locked_rows(Gen *g, Params *p)
{
    int64_t ret = call_block(g, p->lock_base);
    int64_t lock_addr = random_addr(g, &p->locks);
    alu(g, DB_LOCK, 1, 0);
    cas(g, DB_LOCK, lock_addr, 1, DB_LOCK);
    db_rows(g, p);
    membar(g);
    store(g, lock_addr, 0, 1);
    jump(g, ret);
}

static void db_transaction(Gen *g, Params *p)
{
    int64_t base = p->txn_base;
    jump(g, base);

    int64_t calls = randint(g, p->calls_lo, p->calls_span);
    for (int64_t k = 0; k < calls; k++) {
        g->pc = base;
        code_call(g, p);
        branch(g, k + 1 < calls, base, DB_CTR);
    }

    int64_t descents = draw53(g) < p->second_descent ? 2 : 1;
    for (int64_t d = 0; d < descents; d++) {
        g->pc = base + 8;
        db_descent(g, p);
        branch(g, d + 1 < descents, base + 8, DB_CTR);
    }

    int locked = draw53(g) < p->lock;
    g->pc = base + 16;
    branch(g, locked, base + 28, DB_CTR);
    if (!locked) {
        db_rows(g, p);
        jump(g, base + 36);
    } else {
        g->pc = base + 28;
        db_locked_rows(g, p);
        jump(g, base + 36);
    }

    g->pc = base + 36;
    int64_t words = randint(g, p->log_words_lo, p->log_words_span);
    int64_t log_line = next_line(&p->log, 1);
    for (int64_t w = 0; w < words; w++) {
        g->pc = base + 36;
        store(g, log_line + 8 * w, DB_LOGV, 4);
        branch(g, w + 1 < words, base + 36, DB_CTR);
    }
}

/* -- SpecJBBWorkload ------------------------------------------------------- */

static void jbb_object_access(Gen *g, Params *p)
{
    int64_t ret = call_block(g, p->object_base);
    int cold = draw53(g) < p->cold_object;
    int64_t table = random_addr(g, &p->hot);
    int64_t value = site_value(g, &g->values, g->nflat + SITE_JBB_TABLE);
    load(g, JBB_OBJ, table, 1, value);
    alu(g, JBB_OBJ, JBB_OBJ, 7);
    int64_t lock_addr = random_addr(g, &p->locks);
    alu(g, JBB_LOCK, 1, 0);
    cas(g, JBB_LOCK, lock_addr, 1, JBB_LOCK);
    int64_t obj = -1;
    if (cold) {
        if (draw53(g) < p->recent_object)
            obj = pool_sample(g, &g->pool_a);
        if (obj < 0) {
            obj = next_line(&p->heap, p->object_stride);
            pool_insert(&g->pool_a, obj);
        }
    } else {
        int64_t word = random_addr(g, &p->warm);
        obj = word - word % p->warm.line_bytes;
        /* certify: assume obj >= 0 -- word >= 0, so word % line_bytes <= word */
    }
    int64_t fields = randint(g, p->fields_lo, p->fields_span);
    int second_line = fields == 4 && draw53(g) < p->second_line;
    int64_t head = g->pc;
    for (int64_t f = 0; f < fields; f++) {
        g->pc = head;
        int64_t offset = (f == 3 && second_line) ? 64 : 0;
        value = site_value(g, &g->values, g->nflat + SITE_JBB_FIELD);
        load(g, JBB_FIELD, obj + offset + 8 * (f % 4), JBB_OBJ, value);
        alu(g, JBB_FIELD, JBB_FIELD, 1);
        branch(g, f + 1 < fields, head, JBB_CTR);
    }
    int64_t branch_site = g->pc;
    int taken = forced_outcome(g, p->object_bias);
    branch(g, taken, branch_site + 12, JBB_FIELD);
    if (!taken) {
        alu(g, JBB_FIELD, JBB_FIELD, 7);
        alu(g, JBB_FIELD, JBB_FIELD, 1);
    }
    store(g, obj + 8, JBB_FIELD, JBB_OBJ);
    membar(g);
    store(g, lock_addr, 0, 1);
    jump(g, ret);
}

static void jbb_allocate(Gen *g, Params *p)
{
    int64_t ret = call_block(g, p->alloc_base);
    int64_t line = next_line(&p->young, 1);
    alu(g, JBB_ALLOC, 3, 7);
    int64_t words = randint(g, p->alloc_words_lo, p->alloc_words_span);
    int64_t head = g->pc;
    for (int64_t w = 0; w < words; w++) {
        g->pc = head;
        store(g, line + 8 * w, JBB_ALLOC, JBB_ALLOC);
        branch(g, w + 1 < words, head, JBB_CTR);
    }
    jump(g, ret);
}

static void jbb_transaction(Gen *g, Params *p)
{
    int64_t base = p->txn_base;
    jump(g, base);

    int64_t calls = randint(g, p->calls_lo, p->calls_span);
    for (int64_t k = 0; k < calls; k++) {
        g->pc = base;
        code_call(g, p);
        branch(g, k + 1 < calls, base, JBB_CTR);
    }

    int64_t objects = randint(g, p->objects_lo, p->objects_span);
    for (int64_t o = 0; o < objects; o++) {
        g->pc = base + 8;
        jbb_object_access(g, p);
        branch(g, o + 1 < objects, base + 8, JBB_CTR);
    }

    int allocate = draw53(g) < p->alloc;
    g->pc = base + 16;
    branch(g, !allocate, base + 24, JBB_CTR);
    if (allocate)
        jbb_allocate(g, p);
    g->pc = base + 24;
    alu(g, JBB_CTR, JBB_CTR, 7);
}

/* -- SpecWebWorkload ------------------------------------------------------- */

static void web_send_burst(Gen *g, Params *p)
{
    int64_t ret = call_block(g, p->burst_base);
    int64_t segments = randint(g, p->segments_lo, p->segments_span);
    int independent = draw53(g) < p->independent;
    int prefetched = draw53(g) < p->prefetch;
    alu(g, WEB_BUF, 3, 7);
    int64_t head = g->pc;
    for (int64_t k = 0; k < segments; k++) {
        g->pc = head;
        int64_t seg = next_line(&p->files, p->segment_stride);
        int64_t value;
        if (independent) {
            alu(g, WEB_BUF, 3, 7);
            value = site_value(g, &g->values,
                               g->nflat + SITE_WEB_HEADER);
            load(g, WEB_CHK, seg, WEB_BUF, value);
        } else {
            alu(g, WEB_CTR, WEB_CTR, 7);
            value = site_value(g, &g->values,
                               g->nflat + SITE_WEB_HEADER);
            load(g, WEB_BUF, seg, WEB_BUF, value);
        }
        int64_t extra = randint(g, p->extra_lo, p->extra_span);
        for (int64_t slot = 0; slot < 2; slot++) {
            g->pc = head + 12 + 4 * slot;
            if (prefetched && slot < extra)
                prefetch(g, seg + 64 * (slot + 1), WEB_BUF);
            else
                prefetch(g, random_addr(g, &p->hot), 2);
        }
        for (int64_t slot = 0; slot < 2; slot++) {
            g->pc = head + 20 + 8 * slot;
            int64_t site = g->nflat + SITE_WEB_PAYLOAD0 + slot;
            if (slot < extra) {
                value = site_value(g, &g->values, site);
                load(g, WEB_CHK, seg + 64 * (slot + 1), WEB_BUF, value);
            } else {
                int64_t scratch = random_addr(g, &p->hot);
                value = site_value(g, &g->values, site);
                load(g, WEB_CHK, scratch, 2, value);
            }
            alu(g, WEB_CHK, WEB_CHK, 1);
        }
        g->pc = head + 36;
        store(g, random_addr(g, &p->warm), WEB_CHK, 2);
        branch(g, k + 1 < segments, head, WEB_CTR);
    }
    jump(g, ret);
}

static void web_lookup(Gen *g, Params *p)
{
    int64_t ret = call_block(g, p->lookup_base);
    int64_t meta = random_addr(g, &p->warm);
    int64_t value = site_value(g, &g->values, g->nflat + SITE_WEB_LOOKUP);
    load(g, WEB_DESC, meta, 2, value);
    alu(g, WEB_DESC, WEB_DESC, 1);
    int cold = draw53(g) < p->cold_lookup;
    branch(g, !cold, g->pc + 8, WEB_CTR);
    if (cold) {
        int64_t line = -1;
        if (draw53(g) < p->recent_file)
            line = pool_sample(g, &g->pool_a);
        if (line < 0) {
            line = next_line(&p->files, p->descriptor_stride);
            pool_insert(&g->pool_a, line);
        }
        value = site_value(g, &g->values, g->nflat + SITE_WEB_DESCRIPTOR);
        load(g, WEB_DESC, line, WEB_DESC, value);
    }
    jump(g, ret);
}

static void web_transaction(Gen *g, Params *p)
{
    int64_t base = p->txn_base;
    jump(g, base);

    int64_t calls = randint(g, p->calls_lo, p->calls_span);
    for (int64_t k = 0; k < calls; k++) {
        g->pc = base;
        code_call(g, p);
        branch(g, k + 1 < calls, base, WEB_CTR);
    }

    g->pc = base + 8;
    web_lookup(g, p);

    int send = draw53(g) < p->burst;
    g->pc = base + 12;
    branch(g, !send, base + 20, WEB_CTR);
    if (send)
        web_send_burst(g, p);
    g->pc = base + 20;
    alu(g, WEB_CTR, WEB_CTR, 7);
}

/* -- entry ------------------------------------------------------------------ */

/* Write the first n rows of the trace into the ten columns.  Returns
 * n, or -1 when the site tables or pools cannot be allocated.  The
 * MT words are advanced in place. */
int64_t generate(
    int64_t n, int64_t nflat, int64_t nfuncs, int64_t pool,
    Params *p, uint32_t *mt,
    const int8_t *t_kind, const int16_t *t_a, const int16_t *t_b,
    const int16_t *t_c, const int32_t *t_arg,
    const int64_t *f_start, const int64_t *f_end, const int64_t *f_pc,
    const int64_t *zipf,
    int8_t *op, int64_t *pc, int16_t *dst, int16_t *src1, int16_t *src2,
    int16_t *src3, int64_t *addr, uint8_t *taken, int64_t *target,
    int64_t *value)
{
    Gen g;
    g.mt = mt;
    g.mti = p->mt_index;
    g.pc = p->start_pc;
    g.row = 0;
    g.length = n;
    g.nflat = nflat;
    g.nfuncs = nfuncs;
    g.fresh_stride = p->fresh_stride;
    g.op = op;
    g.pcs = pc;
    g.dst = dst;
    g.src1 = src1;
    g.src2 = src2;
    g.src3 = src3;
    g.addr = addr;
    g.taken = taken;
    g.target = target;
    g.value = value;
    g.t_kind = t_kind;
    g.t_a = t_a;
    g.t_b = t_b;
    g.t_c = t_c;
    g.t_arg = t_arg;
    g.f_start = f_start;
    g.f_end = f_end;
    g.f_pc = f_pc;
    g.zipf = zipf;
    g.values.repeat = p->value_repeat;
    g.values.fresh = p->fresh_base;
    g.chase.repeat = p->chase_repeat;
    g.chase.fresh = p->fresh_base;
    g.pool_a.cap = p->pool_a_cap;
    g.pool_a.len = 0;
    g.pool_a.cursor = 0;
    g.pool_b.cap = p->pool_b_cap;
    g.pool_b.len = 0;
    g.pool_b.cursor = 0;
    g.last = malloc((nflat + MOTIF_SITES) * sizeof(int64_t));
    g.bias = malloc(nflat * sizeof(int64_t));
    g.pool_a.lines = malloc(pool * sizeof(int64_t));
    g.pool_b.lines = malloc(pool * sizeof(int64_t));
    int ok = g.last && g.bias && g.pool_a.lines && g.pool_b.lines;
    if (ok) {
        memset(g.last, 0xff, (nflat + MOTIF_SITES) * sizeof(int64_t));
        memset(g.bias, 0xff, nflat * sizeof(int64_t));
        while (g.row < g.length) {
            if (p->script == SCRIPT_DATABASE)
                db_transaction(&g, p);
            else if (p->script == SCRIPT_SPECJBB)
                jbb_transaction(&g, p);
            else
                web_transaction(&g, p);
        }
    }
    free(g.last);
    free(g.bias);
    free(g.pool_a.lines);
    free(g.pool_b.lines);
    return ok ? g.row : -1;
}
