/* Compiled annotation kernel: the two layers of repro.trace.annotate,
 * and the renaming behind repro.core.depgraph.
 *
 * annotate_front() is a C translation of annotate._run_front_pass:
 * true-LRU L1I/L1D filtering plus gshare and the 4-way BTB, which
 * predict returns like any other branch (no return-address stack is
 * modelled).  It writes the trace-length mispredict mask and the
 * positions and kinds of the trace-order access stream the L2 layer
 * needs.
 * annotate_back() is the L2 replay of annotate.back_pass: it sets the
 * imiss/dmiss/smiss/pmiss/pfuseful masks.  annotate_rename() is
 * depgraph.rename_region: each instruction's register and memory
 * producers over one trace region, written as four int32 columns.
 * The Python loops stay the oracle and the fallback route;
 * tests/test_annotate_layers.py holds both annotation routes
 * bit-identical to the frozen single-loop annotator, and
 * tests/test_depgraph_kernel.py holds the renaming to its loop.
 *
 * Hashing stays in NumPy.  The caller precomputes every cache line
 * (the shifts), the per-instruction flags (branch has a condition
 * source; fetch or data line is a line some PREFETCH touches), dense
 * ids of the stream's L2 lines and dense ids of the memory operations'
 * addresses, so the back pass keeps its prefetched-line owners, and
 * the renaming its last store per address, in a flat table.
 *
 * LRU bookkeeping: the Python cache stamps each touch with a per-set
 * counter.  Any stamp that orders the touches of one cache does the
 * same job, so each cache stamps with the position of the access: the
 * instruction index for an L1 or the BTB, the stream index for the
 * L2.  A way whose age is -1 is empty; the victim search, which takes
 * the smallest age, fills empty ways first.
 *
 * Shared names: the OP_* opcodes, the stream kinds FETCH_MISS ...
 * LOAD_HIT of repro.trace.annotate, BTB_WAYS (repro.branch.btb), WAYS
 * (the ways reserved per cache set: the largest associativity
 * ANNOTATE_CONTRACT admits), the register file's NUM_REGS and
 * REG_ZERO (repro.isa.registers), the Geometry struct and the
 * prototypes of the three entry points come from the header
 * repro.cbuild renders from the Python definitions
 * (repro/trace/ckernel.py) and compiles ahead of this file.  The
 * prototypes are rendered from each entry point's one declaration, in
 * ANNOTATE_CONTRACT, so the compiler checks the definitions below
 * against them.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* WAYS slots per set: each slot's resident line, and the stamp of its
 * last touch (-1 if empty). */
typedef struct {
    int64_t *tags, *ages; /* certify: buffer length WAYS * sets */
    int64_t mask; /* certify: range 0 .. sets - 1 */
    int64_t assoc; /* certify: range 1 .. WAYS */
} Cache;

typedef struct {
    /* gshare 2-bit counters */
    uint8_t *counters; /* certify: buffer length gshare content 0 .. 3 */
    /* BTB_WAYS slots per set: pc >> 2, the target, and the stamp of the
     * slot's last touch (-1 if empty). */
    /* certify: buffer length BTB_WAYS * btb_sets */
    int64_t *btb_tag, *btb_target, *btb_age;
    int64_t g_mask; /* certify: range 0 .. gshare - 1 */
    int64_t b_mask; /* certify: range 0 .. btb_sets - 1 */
    /* global branch history */
    int64_t history; /* certify: range 0 .. (1 << 24) - 1 */
} Predictor;

/* The front pass's stream, which it returns through out_pos and
 * out_kind. */
typedef struct {
    int32_t *pos; /* certify: column out_pos */
    int8_t *kind; /* certify: column out_kind */
    int64_t m; /* certify: range 0 .. 2 * n */
} Stream;

/* Cache.access: return 1 on a hit; allocate the line on a miss. */
/* certify: requires line >= 0 && line <= (1 << 62) */
/* certify: requires stamp >= 0 && stamp <= (1 << 28) */
static int cache_access(Cache *c, int64_t line, int64_t stamp)
{
    int64_t set = line & c->mask;
    /* certify: assume set >= 0 && set <= c->mask -- line and mask are
       both non-negative, and x & m never exceeds m */
    int64_t base = set * WAYS;
    int64_t victim = 0;
    for (int64_t w = 0; w < WAYS && w < c->assoc; w++) {
        if (c->tags[base + w] == line) {
            c->ages[base + w] = stamp;
            return 1;
        }
        if (c->ages[base + w] < c->ages[base + victim])
            victim = w;
    }
    c->tags[base + victim] = line;
    c->ages[base + victim] = stamp;
    return 0;
}

/* BranchPredictor.observe for a CONDITIONAL branch: predict, train on
 * the outcome, and return whether the branch was mispredicted. */
/* certify: requires pc >= 0 && pc <= (1 << 62) */
/* certify: requires taken >= 0 && taken <= 1 */
/* certify: requires stamp >= 0 && stamp <= (1 << 26) */
/* certify: returns 0 .. 1 */
static int observe_branch(Predictor *p, int64_t pc, int taken,
                          int64_t target, int64_t stamp)
{
    int64_t word = pc >> 2;
    int64_t g = (word ^ p->history) & p->g_mask;
    /* certify: assume g >= 0 && g <= p->g_mask -- both operands are
       non-negative, and x & m never exceeds m */
    int64_t set = word & p->b_mask;
    /* certify: assume set >= 0 && set <= p->b_mask -- word and mask
       are both non-negative, and x & m never exceeds m */
    int64_t base = set * BTB_WAYS;

    /* Direction from gshare, target from the BTB (a lookup hit
     * refreshes the entry's recency, as BranchTargetBuffer.lookup). */
    int predicted_taken = p->counters[g] >= 2;
    int64_t hit = -1;
    for (int64_t w = base; w < base + BTB_WAYS; w++) {
        if (p->btb_tag[w] == word) {
            hit = w;
            break;
        }
    }
    if (hit >= 0)
        p->btb_age[hit] = 2 * stamp;
    int direction_wrong = predicted_taken != taken;
    int target_wrong = taken && !direction_wrong &&
                       (hit < 0 || p->btb_target[hit] != target);

    /* Train: the saturating counter, the history, then the BTB. */
    uint8_t counter = p->counters[g];
    if (taken) {
        if (counter < 3)
            p->counters[g] = counter + 1;
    } else if (counter > 0) {
        p->counters[g] = counter - 1;
    }
    p->history = ((p->history << 1) | taken) & p->g_mask;
    if (taken) {
        if (hit < 0) {
            hit = base;
            for (int64_t w = base + 1; w < base + BTB_WAYS; w++) {
                if (p->btb_age[w] < p->btb_age[hit])
                    hit = w;
            }
            p->btb_tag[hit] = word;
        }
        p->btb_target[hit] = target;
        p->btb_age[hit] = 2 * stamp + 1;
    }
    return direction_wrong || target_wrong;
}

/* certify: requires i >= 0 && i <= n - 1 */
/* certify: requires kind >= 0 && kind <= 5 */
static void emit(Stream *s, int64_t i, int kind)
{
    int64_t m = s->m;
    /* certify: assume m <= 2 * n - 1 -- the front pass emits at most
       one fetch-line entry and one data entry per instruction */
    s->pos[m] = (int32_t)i;
    s->kind[m] = (int8_t)kind;
    s->m = m + 1;
}

/* The L2-independent layer: writes each stream entry's position and
 * kind (its address is the pc or data address there) and returns the
 * stream length, or -1 when the scratch tables cannot be allocated. */
int64_t annotate_front(
    int64_t n, int64_t sets, int64_t gshare, int64_t btb_sets,
    const Geometry *geo,
    const int8_t *ops, const int64_t *pc, const int64_t *target,
    const uint8_t *taken, const uint8_t *cond,
    const int64_t *fetch_line, const int64_t *iline, const int64_t *dline,
    const uint8_t *pf_fetch, const uint8_t *pf_data,
    uint8_t *mispred, int32_t *out_pos, int8_t *out_kind)
{
    /* certify: assume geo->l1i_sets <= sets && geo->l1d_sets <= sets -- run_front_pass passes the larger L1 set count as sets, and checks it before the call */
    Cache l1i;
    Cache l1d;
    Predictor bp;
    Stream s;
    l1i.tags = malloc(WAYS * sets * sizeof(int64_t));
    l1i.ages = malloc(WAYS * sets * sizeof(int64_t));
    l1d.tags = malloc(WAYS * sets * sizeof(int64_t));
    l1d.ages = malloc(WAYS * sets * sizeof(int64_t));
    bp.counters = malloc(gshare * sizeof(uint8_t));
    bp.btb_tag = malloc(BTB_WAYS * btb_sets * sizeof(int64_t));
    bp.btb_target = malloc(BTB_WAYS * btb_sets * sizeof(int64_t));
    bp.btb_age = malloc(BTB_WAYS * btb_sets * sizeof(int64_t));
    int ok = l1i.tags && l1i.ages && l1d.tags && l1d.ages &&
             bp.counters && bp.btb_tag && bp.btb_target && bp.btb_age;
    int64_t count = -1;
    if (ok) {
        memset(l1i.tags, 0xff, WAYS * sets * sizeof(int64_t));
        memset(l1i.ages, 0xff, WAYS * sets * sizeof(int64_t));
        memset(l1d.tags, 0xff, WAYS * sets * sizeof(int64_t));
        memset(l1d.ages, 0xff, WAYS * sets * sizeof(int64_t));
        memset(bp.btb_tag, 0xff, BTB_WAYS * btb_sets * sizeof(int64_t));
        memset(bp.btb_age, 0xff, BTB_WAYS * btb_sets * sizeof(int64_t));
        for (int64_t g = 0; g < gshare; g++)
            bp.counters[g] = 1;  /* weakly not-taken */
        l1i.mask = geo->l1i_sets - 1;
        l1i.assoc = geo->l1i_assoc;
        l1d.mask = geo->l1d_sets - 1;
        l1d.assoc = geo->l1d_assoc;
        bp.g_mask = gshare - 1;
        bp.b_mask = btb_sets - 1;
        bp.history = 0;
        s.pos = out_pos;
        s.kind = out_kind;
        s.m = 0;

        int64_t previous = -1;  /* no fetch line yet */
        for (int64_t i = 0; i < n; i++) {
            if (fetch_line[i] != previous) {
                if (!cache_access(&l1i, iline[i], i))
                    emit(&s, i, FETCH_MISS);
                else if (pf_fetch[i])
                    emit(&s, i, FETCH_HIT);
                previous = fetch_line[i];
            }
            int8_t op = ops[i];
            if (op == OP_LOAD || op == OP_CAS || op == OP_LDSTUB) {
                if (!cache_access(&l1d, dline[i], i))
                    emit(&s, i, LOAD_MISS);
                else if (pf_data[i])
                    emit(&s, i, LOAD_HIT);
            } else if (op == OP_STORE) {
                if (!cache_access(&l1d, dline[i], i))
                    emit(&s, i, STORE_MISS);
            } else if (op == OP_PREFETCH) {
                if (!cache_access(&l1d, dline[i], i))
                    emit(&s, i, PREFETCH_MISS);
            } else if (op == OP_BRANCH && cond[i]) {
                mispred[i] = (uint8_t)observe_branch(&bp, pc[i], taken[i],
                                                     target[i], i);
            }
        }
        count = s.m;
    }

    free(l1i.tags);
    free(l1i.ages);
    free(l1d.tags);
    free(l1d.ages);
    free(bp.counters);
    free(bp.btb_tag);
    free(bp.btb_target);
    free(bp.btb_age);
    return count;
}

/* The L2 layer: replay the stream, set the off-chip masks.  n and
 * nlines are the lengths of the masks and of the owner table, where
 * owner[id] is the prefetch whose off-chip line awaits a demand
 * consumer (-1: none).  Returns 0, or 1 when the cache cannot be
 * allocated. */
int annotate_back(
    int64_t n, int64_t m, int64_t nlines, int64_t sets, int64_t assoc,
    const int32_t *position, const int8_t *kind, const int64_t *line,
    const int32_t *line_id, int32_t *owner,
    uint8_t *dmiss, uint8_t *pmiss, uint8_t *pfuseful, uint8_t *imiss,
    uint8_t *smiss)
{
    Cache l2;
    l2.tags = malloc(WAYS * sets * sizeof(int64_t));
    l2.ages = malloc(WAYS * sets * sizeof(int64_t));
    int ok = l2.tags && l2.ages;
    if (ok) {
        memset(l2.tags, 0xff, WAYS * sets * sizeof(int64_t));
        memset(l2.ages, 0xff, WAYS * sets * sizeof(int64_t));
        l2.mask = sets - 1;
        l2.assoc = assoc;
        for (int64_t j = 0; j < m; j++) {
            int64_t i = position[j];
            int8_t k = kind[j];
            int32_t id = line_id[j];
            if (k == STORE_MISS) {
                if (!cache_access(&l2, line[j], j))
                    smiss[i] = 1;
            } else if (k == PREFETCH_MISS) {
                if (!cache_access(&l2, line[j], j)) {
                    pmiss[i] = 1;
                    owner[id] = (int32_t)i;
                }
            } else if (k < FETCH_HIT && !cache_access(&l2, line[j], j)) {
                if (k == FETCH_MISS)
                    imiss[i] = 1;
                else
                    dmiss[i] = 1;
                owner[id] = -1;
            } else {
                /* A demand access that stayed on chip consumes the line. */
                int32_t prefetch = owner[id];
                if (prefetch >= 0) {
                    pfuseful[prefetch] = 1;
                    owner[id] = -1;
                }
            }
        }
    }
    free(l2.tags);
    free(l2.ages);
    return ok ? 0 : 1;
}

/* The dependence graph of one trace region: a C translation of
 * repro.core.depgraph.rename_region.  For each instruction, prod1-3
 * get the youngest older writer of its src1-3 (REG_ZERO and no-register
 * operands have none) and memdep the youngest older store-like
 * instruction to its address (loads and atomics only); -1 means no
 * producer inside the region.  Sources are read before the destination
 * is written, and an atomic reads memory before it writes.
 *
 * addr_id[i] is the dense id of instruction i's address when it is a
 * load, store, CAS or LDSTUB, and -1 otherwise.  last_writer
 * (NUM_REGS entries) and last_store (naddrs entries) arrive filled
 * with -1. */
void annotate_rename(
    int64_t n, int64_t naddrs,
    const int8_t *ops, const int16_t *dst, const int16_t *src1,
    const int16_t *src2, const int16_t *src3, const int32_t *addr_id,
    int32_t *last_writer, int32_t *last_store,
    int32_t *prod1, int32_t *prod2, int32_t *prod3, int32_t *memdep)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t s = src1[i];
        prod1[i] = s > REG_ZERO ? last_writer[s] : -1;
        s = src2[i];
        prod2[i] = s > REG_ZERO ? last_writer[s] : -1;
        s = src3[i];
        prod3[i] = s > REG_ZERO ? last_writer[s] : -1;

        int8_t op = ops[i];
        int64_t id = addr_id[i];
        int32_t dep = -1;
        if (id >= 0) {
            if (op == OP_LOAD || op == OP_CAS || op == OP_LDSTUB)
                dep = last_store[id];
            if (op == OP_STORE || op == OP_CAS || op == OP_LDSTUB)
                last_store[id] = (int32_t)i;
        }
        memdep[i] = dep;

        int64_t d = dst[i];
        if (d > REG_ZERO)
            last_writer[d] = (int32_t)i;
    }
}
