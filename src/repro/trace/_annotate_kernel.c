/* Compiled annotation kernel: the two layers of repro.trace.annotate.
 *
 * annotate_front() is a C translation of annotate._run_front_pass with
 * the default branch predictor: true-LRU L1I/L1D filtering plus gshare
 * and the 4-way BTB.  The front pass predicts every branch as
 * CONDITIONAL, so the return-address stack is never consulted.  It
 * writes the trace-length mispredict mask and the positions and kinds
 * of the trace-order access stream the L2 layer needs.  annotate_back() is the L2 replay of
 * annotate.back_pass: it sets the imiss/dmiss/smiss/pmiss/pfuseful
 * masks.  The Python loops stay the oracle and the fallback route;
 * tests/test_annotate_layers.py holds both routes bit-identical to the
 * frozen single-loop annotator.
 *
 * Hashing stays in NumPy.  The caller precomputes every cache line
 * (the shifts), the per-instruction flags (branch has a condition
 * source; fetch or data line is a line some PREFETCH touches) and
 * dense ids of the stream's L2 lines, so the back pass keeps its
 * prefetched-line owners in a flat table.
 *
 * LRU bookkeeping: the Python cache stamps each touch with a per-set
 * counter.  Any stamp that orders the touches of one cache does the
 * same job, so each cache stamps with the position of the access: the
 * instruction index for an L1 or the BTB, the stream index for the
 * L2.  A way whose age is -1 is empty; the victim search, which takes
 * the smallest age, fills empty ways first.
 *
 * Shared names: the OP_* opcodes, the stream kinds FETCH_MISS ...
 * LOAD_HIT of repro.trace.annotate, BTB_WAYS and the Geometry struct
 * come from the header repro.cbuild renders from the Python
 * definitions (repro/trace/ckernel.py) and compiles ahead of this file.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Ways reserved per cache set: the largest associativity the
 * contract admits. */
#define WAYS 16

typedef struct {
    int64_t *tags;   /* WAYS slots per set: the resident line        */
    int64_t *ages;   /* stamp of the slot's last touch, -1 if empty  */
    int64_t mask;    /* set count - 1                                */
    int64_t assoc;
} Cache;

typedef struct {
    uint8_t *counters;   /* gshare 2-bit counters                    */
    int64_t *btb_tag;    /* BTB_WAYS slots per set: pc >> 2          */
    int64_t *btb_target;
    int64_t *btb_age;    /* stamp of the slot's last touch, -1 empty */
    int64_t g_mask;
    int64_t b_mask;
    int64_t history;     /* global branch history                    */
} Predictor;

typedef struct {
    int32_t *pos;
    int8_t *kind;
    int64_t m;
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
    /* certify: assume geo->l1i_sets <= sets && geo->l1d_sets <= sets -- run_front_pass passes the larger L1 set count as sets, and validate_annotate_contract checks it */
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
