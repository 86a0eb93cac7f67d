/* MLPsim epoch-model kernel: the one compiled engine beside the oracles.
 *
 * Translations of the two Python oracles over the columnar plan of
 * src/repro/core/columnar.py, run for MANY machine configurations
 * against ONE shared set of trace columns per call:
 *   - simulate_ooo: the out-of-order scan of the frozen oracle
 *     `simulate_reference` (src/repro/core/mlpsim_reference.py), plus
 *     a bulk skip over on-chip stretches (phase 2a);
 *   - simulate_runahead: the runahead scan `simulate_runahead`
 *     (src/repro/core/runahead.py).
 * Each config's `runahead` field picks its scan.  The equivalence
 * suites hold every result bit-for-bit to those two oracles; any change
 * here must keep that property.
 *
 * Compiled on demand by repro.cbuild with the system C compiler; when
 * no compiler is available repro.core.mlpsim.simulate and the sweep
 * executor run the oracles instead.  No libc beyond
 * malloc/free/memcpy/memset.
 *
 * Layout contract (see repro.core.columnar):
 *   - producer columns are region-relative int32 with sentinel n
 *     ("no producer"); the result array holds n+1 (data, valid) epoch
 *     pairs with pair n = 0, so availability reads never branch and
 *     one cache line serves both epochs of a producer.
 *   - event columns are uint8 (0/1) with the machine's perfect-*
 *     switches already applied by the plan builder.
 *
 * Shared names: the OP_* opcodes, the INH_* inhibitor indices (with
 * INH_COUNT), NOT_EXECUTED, the KernelConfig/KernelResult structs and
 * the prototype of mlpsim_batch come from the header repro.cbuild
 * renders from the Python definitions (repro/core/ckernel.py) and
 * compiles ahead of this file.  The prototype is rendered from the
 * entry point's one declaration, in PLAN_CONTRACT
 * (repro/core/columnar.py), so the compiler checks the definition
 * below against it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* execute() statuses */
#define ST_DONE 0
#define ST_DEFER 1
#define ST_STOP_DONE 2
#define ST_STOP_DEFER 3

/* Shared trace columns plus the per-config scratch buffers.  A column
 * member holds the mlpsim_batch parameter of its name. */
typedef struct {
    int64_t n; /* certify: range n .. n */
    const int8_t *ops;
    const int32_t *prod1;
    const int32_t *prod2;
    const int32_t *prod3;
    const int32_t *memdep;
    const uint8_t *dmiss;
    const uint8_t *mispred;
    const uint8_t *pmiss;
    const uint8_t *pfuseful;
    const uint8_t *vp_ok;
    const uint8_t *smiss;
    const uint8_t *scalar_mask; /* "interesting" positions: see plan */
    uint8_t *imiss; /* per-config copy: serviced lines are cleared */
    /* Runahead's per-config copies of dmiss and pmiss: serviced
     * accesses are cleared. */
    /* certify: buffer length n content 0 .. 1 */
    uint8_t *live_dmiss, *live_pmiss;
    /* One (data, valid) epoch pair per instruction, 2(n+1) slots: the
     * data epoch of k at 2k, its valid epoch at 2k+1.  The pair at n is
     * 0; the pair at k < n is reset when fetch reaches k. */
    /* certify: buffer length 2 * n + 2 content 0 .. (1 << 30) */
    int32_t *res;
    /* certify: buffer length n + 1 content 0 .. n - 1 */
    int32_t *deferred, *new_deferred;
    /* Runahead's per-period sets, n+1 slots each: slot k belongs to a
     * set while it holds the current period's stamp.  Slot n, the "no
     * producer" sentinel, is never stamped. */
    /* certify: buffer length n + 1 content 0 .. n */
    int32_t *poisoned, *unvalidated, *dead_store;
    /* Useful prefetches awaiting an epoch. */
    /* certify: buffer length n + 1 content 0 .. n - 1 */
    int32_t *pending_pf;
} Trace;

/* Per-epoch scan state (the oracle's per-epoch locals). */
typedef struct {
    /* certify: trusted range 1 .. (1 << 28) -- every epoch retires or
       defers at least one instruction, so epoch <= 2n + 2 < 2^28 */
    int32_t epoch;
    /* certify: trusted range 0 .. (1 << 30) -- counts instructions
       scanned in one epoch plus the prefetches joining it, <= 2n + 1 */
    int64_t accesses, e_dmiss, e_imiss, e_pmiss, e_smiss, inflight;
    /* -1 = none */
    int64_t trigger_idx, first_miss_idx; /* certify: range -1 .. n - 1 */
    /* certify: range 0 .. 1 */
    int blocked_memop, blocked_staddr, blocked_branch, progress;
    /* certify: trusted range 0 .. (1 << 30) -- counts instructions
       scanned in one epoch plus the prefetches joining it, <= 2n + 1 */
    int64_t ev_count;
    int ev_first, ev_last; /* certify: range -1 .. INH_COUNT - 1 */
    /* certify: trusted range 0 .. n -- each instruction index enters
       new_deferred at most once per epoch, so the pending count never
       exceeds n */
    int64_t nd_len;
} Scan;

/* certify: requires inhibitor >= 0 && inhibitor <= INH_COUNT - 1 */
static inline void emit(Scan *s, int inhibitor)
{
    if (s->ev_count == 0)
        s->ev_first = inhibitor;
    s->ev_last = inhibitor;
    s->ev_count++;
}

/* certify: returns 0 .. 1 */
static inline int slow_bp_saves(const KernelConfig *c, int64_t i)
{
    if (!c->slow_bp)
        return 0;
    return (int64_t)((((uint64_t)i * 2654435761ULL) >> 7) % 1024)
        < c->slow_bp_threshold;
}

/* certify: requires i >= 0 && i <= n - 1 */
/* certify: requires ve >= 0 && ve <= (1 << 30) */
static inline int execute_atomic(const Trace *t, const KernelConfig *c,
                                 Scan *s, int64_t i, int32_t ve)
{
    if (t->dmiss[i]) {
        s->accesses++;
        s->e_dmiss++;
        s->inflight++;
        if (s->trigger_idx < 0)
            s->trigger_idx = i;
        if (s->first_miss_idx < 0)
            s->first_miss_idx = i;
        t->res[2 * i] = s->epoch + 1;
        t->res[2 * i + 1] = s->epoch + 1;
    } else {
        t->res[2 * i] = s->epoch;
        t->res[2 * i + 1] = ve > s->epoch ? ve : s->epoch;
    }
    if (c->serializing && t->dmiss[i]) {
        emit(s, INH_SERIALIZE);
        return ST_STOP_DONE;
    }
    return ST_DONE;
}

/* Mirror of the oracle's execute(i), status for status. */
/* certify: requires i >= 0 && i <= n - 1 */
static int execute(const Trace *t, const KernelConfig *c, Scan *s, int64_t i)
{
    const int op = t->ops[i];
    const int32_t epoch = s->epoch;
    int32_t de, ve, d, v;

    if (op == OP_ALU) {
        de = t->res[2 * t->prod1[i]];
        ve = t->res[2 * t->prod1[i] + 1];
        d = t->res[2 * t->prod2[i]];
        if (d > de)
            de = d;
        v = t->res[2 * t->prod2[i] + 1];
        if (v > ve)
            ve = v;
        if (de > epoch)
            return ST_DEFER;
        s->progress = 1;
        t->res[2 * i] = epoch;
        t->res[2 * i + 1] = ve > epoch ? ve : epoch;
        return ST_DONE;
    }

    if (op == OP_BRANCH) {
        de = t->res[2 * t->prod1[i]];
        ve = t->res[2 * t->prod1[i] + 1];
        d = t->res[2 * t->prod2[i]];
        if (d > de)
            de = d;
        v = t->res[2 * t->prod2[i] + 1];
        if (v > ve)
            ve = v;
        int can_issue =
            de <= epoch && !(c->branch_in_order && s->blocked_branch);
        if (can_issue && t->mispred[i] && ve > epoch)
            can_issue = 0; /* predicted value not validated yet */
        if (can_issue) {
            s->progress = 1;
            return ST_DONE;
        }
        s->blocked_branch = 1;
        if (t->mispred[i]) {
            if (slow_bp_saves(c, i))
                return ST_DEFER;
            emit(s, INH_MISPRED_BR);
            return ST_STOP_DEFER;
        }
        return ST_DEFER;
    }

    if (op == OP_LOAD) {
        de = t->res[2 * t->prod1[i]];
        ve = t->res[2 * t->prod1[i] + 1];
        d = t->res[2 * t->prod2[i]];
        if (d > de)
            de = d;
        v = t->res[2 * t->prod2[i] + 1];
        if (v > ve)
            ve = v;
        d = t->res[2 * t->memdep[i]];
        if (d > de)
            de = d;
        v = t->res[2 * t->memdep[i] + 1];
        if (v > ve)
            ve = v;
        if (de > epoch) {
            s->blocked_memop = 1;
            return ST_DEFER;
        }
        if (c->load_in_order && s->blocked_memop) {
            if (t->dmiss[i])
                emit(s, INH_MISSING_LOAD);
            return ST_DEFER;
        }
        if (c->load_wait_staddr && s->blocked_staddr) {
            if (t->dmiss[i])
                emit(s, INH_DEP_STORE);
            return ST_DEFER;
        }
        if (t->dmiss[i] && s->inflight >= c->mshr_cap) {
            emit(s, INH_MSHR_LIMIT);
            s->blocked_memop = 1;
            return ST_DEFER;
        }
        s->progress = 1;
        if (t->dmiss[i]) {
            s->accesses++;
            s->e_dmiss++;
            s->inflight++;
            if (s->trigger_idx < 0)
                s->trigger_idx = i;
            if (s->first_miss_idx < 0)
                s->first_miss_idx = i;
            t->res[2 * i] = t->vp_ok[i] ? epoch : epoch + 1;
            t->res[2 * i + 1] = epoch + 1;
        } else {
            t->res[2 * i] = epoch;
            t->res[2 * i + 1] = ve > epoch ? ve : epoch;
        }
        return ST_DONE;
    }

    if (op == OP_STORE) {
        int32_t ade = t->res[2 * t->prod1[i]];
        int32_t ave = t->res[2 * t->prod1[i] + 1];
        d = t->res[2 * t->prod2[i]];
        if (d > ade)
            ade = d;
        v = t->res[2 * t->prod2[i] + 1];
        if (v > ave)
            ave = v;
        de = ade;
        ve = ave;
        d = t->res[2 * t->prod3[i]];
        if (d > de)
            de = d;
        v = t->res[2 * t->prod3[i] + 1];
        if (v > ve)
            ve = v;
        if (de > epoch) {
            s->blocked_memop = 1;
            if (ade > epoch)
                s->blocked_staddr = 1;
            return ST_DEFER;
        }
        if (t->smiss[i]) {
            if (s->e_smiss >= c->sb_cap) {
                emit(s, INH_STORE_BUFFER);
                s->blocked_memop = 1;
                return ST_DEFER;
            }
            if (s->inflight >= c->mshr_cap) {
                emit(s, INH_MSHR_LIMIT);
                s->blocked_memop = 1;
                return ST_DEFER;
            }
            s->e_smiss++;
            s->inflight++;
        }
        s->progress = 1;
        t->res[2 * i] = epoch;
        t->res[2 * i + 1] = ve > epoch ? ve : epoch;
        return ST_DONE;
    }

    if (op == OP_PREFETCH) {
        de = t->res[2 * t->prod1[i]];
        d = t->res[2 * t->prod2[i]];
        if (d > de)
            de = d;
        if (de > epoch)
            return ST_DEFER;
        if (t->pmiss[i] && s->inflight >= c->mshr_cap) {
            emit(s, INH_MSHR_LIMIT);
            return ST_DEFER;
        }
        s->progress = 1;
        if (t->pmiss[i])
            s->inflight++;
        if (t->pmiss[i] && t->pfuseful[i]) {
            s->accesses++;
            s->e_pmiss++;
            if (s->trigger_idx < 0)
                s->trigger_idx = i;
        }
        return ST_DONE;
    }

    if (op == OP_NOP) {
        s->progress = 1;
        return ST_DONE;
    }

    /* Serializing instructions: CAS / LDSTUB / MEMBAR. */
    de = t->res[2 * t->prod1[i]];
    ve = t->res[2 * t->prod1[i] + 1];
    d = t->res[2 * t->prod2[i]];
    if (d > de)
        de = d;
    v = t->res[2 * t->prod2[i] + 1];
    if (v > ve)
        ve = v;
    d = t->res[2 * t->prod3[i]];
    if (d > de)
        de = d;
    v = t->res[2 * t->prod3[i] + 1];
    if (v > ve)
        ve = v;
    if (op != OP_MEMBAR) {
        d = t->res[2 * t->memdep[i]];
        if (d > de)
            de = d;
        v = t->res[2 * t->memdep[i] + 1];
        if (v > ve)
            ve = v;
    }

    if (c->serializing) {
        int outstanding = s->nd_len > 0 || s->trigger_idx >= 0;
        if (outstanding || de > epoch) {
            emit(s, INH_SERIALIZE);
            if (op == OP_MEMBAR) {
                /* The barrier commits with the drain at epoch end. */
                s->progress = 1;
                t->res[2 * i] = epoch + 1;
                t->res[2 * i + 1] = epoch + 1;
                return ST_STOP_DONE;
            }
            s->blocked_memop = 1;
            return ST_STOP_DEFER;
        }
        s->progress = 1;
        if (op == OP_MEMBAR) {
            t->res[2 * i] = epoch;
            t->res[2 * i + 1] = epoch;
            return ST_DONE;
        }
        return execute_atomic(t, c, s, i, ve);
    }

    /* Non-serializing policy (config E): atomics behave like an
     * ordinary load+store pair, barriers like NOPs. */
    if (op == OP_MEMBAR) {
        s->progress = 1;
        t->res[2 * i] = epoch;
        t->res[2 * i + 1] = epoch;
        return ST_DONE;
    }
    if (de > epoch) {
        s->blocked_memop = 1;
        return ST_DEFER;
    }
    s->progress = 1;
    return execute_atomic(t, c, s, i, ve);
}

/* The run totals of a config, in the header's KernelResult. */
/* certify: trusted range KernelResult.epochs KernelResult.accesses
   KernelResult.dmiss_accesses KernelResult.imiss_accesses
   KernelResult.prefetch_accesses KernelResult.store_accesses
   KernelResult.store_epochs 0 .. (1 << 54) -- bounded by epochs *
   per-epoch accesses <= 2^54 */
/* certify: trusted buffer KernelResult.inhibitors length INH_COUNT
   content 0 .. (1 << 54) -- per-epoch counters: at most one increment
   per epoch */
/* certify: range KernelResult.error_index -1 .. n */

/* Charge one epoch to the run totals: its accesses, and the epoch to
 * one inhibitor. */
/* certify: requires inhibitor >= 0 && inhibitor <= INH_COUNT - 1 */
static void record_epoch(KernelResult *r, const Scan *s, int inhibitor)
{
    r->epochs++;
    r->accesses += s->accesses;
    r->dmiss_accesses += s->e_dmiss;
    r->imiss_accesses += s->e_imiss;
    r->prefetch_accesses += s->e_pmiss;
    r->inhibitors[inhibitor]++;
}

#define FS_NONE 0
#define FS_HARD 1
#define FS_SOFT 2

/* The oracle's simulate_reference: one out-of-order machine. */
/* certify: buffer imiss_src length n content 0 .. 1 */
static void simulate_ooo(Trace *t, const KernelConfig *c, KernelResult *r,
                         const uint8_t *imiss_src)
{
    const int64_t n = t->n;
    int64_t fetch_pos = 0;
    int64_t deferred_len = 0;
    int32_t epoch = 0;
    int64_t i, di;
    Scan s;

    memcpy(t->imiss, imiss_src, (size_t)n);
    /* No per-config reset of the result pairs: every path that moves
     * fetch past k writes k's pair, NOT_EXECUTED or its epoch, before
     * anything reads it.  A read is of the sentinel or of a producer or
     * memdep of a fetched instruction, which fetch has passed already,
     * since it comes earlier in program order. */
    t->res[2 * n] = 0; /* the gather sentinel: "always available" */
    t->res[2 * n + 1] = 0;

    memset(r, 0, sizeof(*r));
    r->error_index = -1;

    while (fetch_pos < n || deferred_len) {
        /* certify: assume epoch <= (1 << 28) - 2 -- every epoch either
         * makes progress (retiring or fetching at least one of the n
         * instructions) or returns through the no-progress error path,
         * so the count stays under ~3n and n <= 1 << 26 */
        epoch++;
        s.epoch = epoch;
        s.accesses = 0;
        s.e_dmiss = 0;
        s.e_imiss = 0;
        s.e_pmiss = 0;
        s.e_smiss = 0;
        s.inflight = 0;
        s.trigger_idx = -1;
        s.first_miss_idx = -1;
        s.blocked_memop = 0;
        s.blocked_staddr = 0;
        s.blocked_branch = 0;
        s.progress = 0;
        s.ev_count = 0;
        s.ev_first = -1;
        s.ev_last = -1;
        s.nd_len = 0;

        int stop_scan = 0;
        int fetch_stop = FS_NONE;
        int32_t *nd = t->new_deferred;

        /* ---- phase 1: deferred instructions, in program order ---- */
        for (di = 0; di < deferred_len; di++) {
            i = t->deferred[di];
            int status = execute(t, c, &s, i);
            if (status == ST_DEFER) {
                nd[s.nd_len++] = (int32_t)i;
            } else if (status == ST_STOP_DEFER) {
                nd[s.nd_len++] = (int32_t)i;
                stop_scan = 1;
            } else if (status == ST_STOP_DONE) {
                stop_scan = 1;
            }
            if (stop_scan) {
                for (di++; di < deferred_len; di++)
                    nd[s.nd_len++] = t->deferred[di];
                /* A dispatch-side stop (serializing drain) lets fetch
                 * run on into the fetch buffer, exactly as the same
                 * stop reached from the fetch stream in phase 2; only
                 * a mispredicted-branch stop freezes fetch itself. */
                if (status == ST_STOP_DONE || s.ev_last == INH_SERIALIZE)
                    fetch_stop = FS_SOFT;
                break;
            }
        }

        /* ---- phase 2a: bulk-skip on-chip stretches in a clean state.
         * While nothing is deferred, nothing is in flight and no event
         * has been recorded, every instruction up to the next
         * interesting position (scalar_mask) executes immediately and
         * the window constraints cannot bind; cleanliness is monotone
         * within an epoch.  The oracle interprets the same stretch
         * one instruction at a time, to the same result. ---- */
        if (!stop_scan && fetch_stop == FS_NONE) {
            while (fetch_pos < n
                   && !(s.nd_len || s.ev_count || s.inflight || s.e_smiss
                        || s.trigger_idx >= 0 || s.first_miss_idx >= 0
                        || s.blocked_memop || s.blocked_staddr
                        || s.blocked_branch)) {
                if (!t->scalar_mask[fetch_pos]) {
                    /* An on-chip run changes none of the state above. */
                    s.progress = 1;
                    while (fetch_pos < n && !t->scalar_mask[fetch_pos]) {
                        t->res[2 * fetch_pos] = epoch;
                        t->res[2 * fetch_pos + 1] = epoch;
                        fetch_pos++;
                    }
                    continue;
                }
                i = fetch_pos;
                if (t->imiss[i])
                    break; /* the interpreter loop below services it */
                t->res[2 * i] = NOT_EXECUTED;
                t->res[2 * i + 1] = NOT_EXECUTED;
                int status = execute(t, c, &s, i);
                fetch_pos++;
                if (status == ST_DEFER) {
                    nd[s.nd_len++] = (int32_t)i;
                } else if (status == ST_STOP_DEFER) {
                    nd[s.nd_len++] = (int32_t)i;
                    fetch_stop =
                        s.ev_last == INH_SERIALIZE ? FS_SOFT : FS_HARD;
                    break;
                } else if (status == ST_STOP_DONE) {
                    fetch_stop = FS_SOFT;
                    break;
                }
            }
        }

        /* ---- phase 2: fetch, one instruction at a time ---- */
        if (!stop_scan && fetch_stop == FS_NONE) {
            while (fetch_pos < n) {
                /* Window constraints bind whenever older work is
                 * uncompleted (a deferral or an outstanding miss). */
                int64_t oldest = s.nd_len ? nd[0] : -1;
                if (s.first_miss_idx >= 0
                    && (oldest < 0 || s.first_miss_idx < oldest))
                    oldest = s.first_miss_idx;
                if (oldest >= 0 && fetch_pos - oldest >= c->rob) {
                    emit(&s, INH_MAXWIN);
                    fetch_stop = FS_SOFT;
                    break;
                }
                if (s.nd_len >= c->iw) {
                    emit(&s, INH_MAXWIN);
                    fetch_stop = FS_SOFT;
                    break;
                }

                i = fetch_pos;
                t->res[2 * i] = NOT_EXECUTED;
                t->res[2 * i + 1] = NOT_EXECUTED;
                if (t->imiss[i]) {
                    if (s.inflight >= c->mshr_cap) {
                        emit(&s, INH_MSHR_LIMIT);
                        fetch_stop = FS_HARD;
                        break;
                    }
                    s.accesses++;
                    s.e_imiss++;
                    s.inflight++;
                    t->imiss[i] = 0; /* the line arrives; don't recount */
                    if (s.trigger_idx < 0) {
                        s.trigger_idx = i;
                        emit(&s, INH_IMISS_START);
                    } else {
                        emit(&s, INH_IMISS_END);
                    }
                    nd[s.nd_len++] = (int32_t)i;
                    fetch_pos++;
                    s.progress = 1;
                    fetch_stop = FS_HARD;
                    break;
                }

                int status = execute(t, c, &s, i);
                fetch_pos++;
                if (status == ST_DEFER) {
                    nd[s.nd_len++] = (int32_t)i;
                } else if (status == ST_STOP_DEFER) {
                    nd[s.nd_len++] = (int32_t)i;
                    fetch_stop =
                        s.ev_last == INH_SERIALIZE ? FS_SOFT : FS_HARD;
                    break;
                } else if (status == ST_STOP_DONE) {
                    fetch_stop = FS_SOFT;
                    break;
                }
            }
        }

        /* ---- phase 3: fetch-buffer run-on past a dispatch stall ---- */
        if (fetch_stop == FS_SOFT) {
            int64_t buffered = 0;
            while (fetch_pos < n && buffered < c->fetch_buffer) {
                i = fetch_pos;
                t->res[2 * i] = NOT_EXECUTED;
                t->res[2 * i + 1] = NOT_EXECUTED;
                if (t->imiss[i]) {
                    if (s.inflight >= c->mshr_cap)
                        break;
                    s.accesses++;
                    s.e_imiss++;
                    s.inflight++;
                    t->imiss[i] = 0;
                    emit(&s, INH_IMISS_END);
                    nd[s.nd_len++] = (int32_t)i;
                    fetch_pos++;
                    s.progress = 1;
                    break;
                }
                nd[s.nd_len++] = (int32_t)i;
                fetch_pos++;
                buffered++;
                if (t->mispred[i]) {
                    /* Fetch past an (unexecuted) mispredicted branch
                     * is on the wrong path: nothing beyond it may be
                     * buffered or counted. */
                    break;
                }
            }
        }

        /* swap deferred <-> new_deferred */
        {
            int32_t *tmp = t->deferred;
            t->deferred = t->new_deferred;
            t->new_deferred = tmp;
            deferred_len = s.nd_len;
        }

        r->store_accesses += s.e_smiss;
        if (s.e_smiss)
            r->store_epochs++;

        if (s.accesses == 0 && s.e_smiss)
            continue; /* store-only epoch: store MLP, not an MLP epoch */
        if (s.accesses == 0) {
            if (!s.progress) {
                /* certify: assume fetch_pos <= n -- fetch_pos starts at
                 * 0 and grows only under fetch_pos < n guards */
                r->error_index =
                    deferred_len ? t->deferred[0] : fetch_pos;
                return;
            }
            continue; /* pure on-chip stretch: not an epoch */
        }

        /* reprolint: disable=kernel-bounds -- emit() sets ev_first in [0, INH_COUNT) whenever ev_count > 0; the interval domain cannot couple the two fields */
        record_epoch(r, &s, s.ev_count ? s.ev_first : INH_END_OF_TRACE);
    }
}

/* ---- runahead execution: repro.core.runahead.simulate_runahead ----
 *
 * A missing load at the head of the ROB starts a runahead period that
 * scans up to max_runahead instructions ahead, turning every reachable
 * miss into a prefetch.  The Python scan keeps three index sets per
 * period (poisoned, unvalidated, dead_stores) and tests a producer p
 * with "p >= i and p in set".  Here a set is the slots holding the
 * period's stamp, its trigger index + 1: a trigger's dmiss flag is
 * cleared, so no two periods share a stamp, and a period stamps only
 * slots i .. limit - 1, so a matching stamp means exactly that test.
 */

/* The Python flush_stale_prefetches: pending prefetches more than a
 * runahead window older than horizon form prefetch-only epochs, a new
 * one every max_runahead instructions; the fresh rest join the epoch
 * *s.  The caller empties the pending list afterwards. */
/* certify: requires pending_len >= 0 && pending_len <= n */
/* certify: requires horizon >= 0 && horizon <= (1 << 28) */
static void flush_stale_prefetches(const Trace *t, const KernelConfig *c,
                                   KernelResult *r, Scan *s,
                                   int64_t pending_len, int64_t horizon)
{
    Scan group;
    int64_t first = 0;
    int64_t k;

    group.accesses = 0;
    group.e_dmiss = 0;
    group.e_imiss = 0;
    group.e_pmiss = 0;
    for (k = 0; k < pending_len; k++) {
        int64_t idx = t->pending_pf[k];
        if (idx >= horizon - c->max_runahead) {
            s->accesses++;
            s->e_pmiss++;
        } else if (group.accesses && idx - first >= c->max_runahead) {
            record_epoch(r, &group, INH_RUNAHEAD_LIMIT);
            first = idx;
            group.accesses = 1;
            group.e_pmiss = 1;
        } else {
            if (!group.accesses)
                first = idx;
            group.accesses++;
            group.e_pmiss++;
        }
    }
    if (group.accesses)
        record_epoch(r, &group, INH_RUNAHEAD_LIMIT);
}

/* One instruction j of the runahead period stamped stamp: returns -1
 * to run on, or the inhibitor that ends the period. */
/* certify: requires j >= 0 && j <= n - 1 */
/* certify: requires stamp >= 1 && stamp <= n */
/* certify: returns -1 .. INH_COUNT - 1 */
static int runahead_step(Trace *t, const KernelConfig *c, Scan *s,
                         int64_t j, int32_t stamp)
{
    const int op = t->ops[j];
    int32_t *poisoned = t->poisoned;
    int32_t *dead = t->dead_store;

    if (t->imiss[j]) {
        if (s->accesses >= c->mshr_cap) {
            /* No MSHR for the line fetch: runahead stalls here and
             * the fetch miss waits for the next epoch. */
            return INH_MSHR_LIMIT;
        }
        t->imiss[j] = 0;
        s->accesses++;
        s->e_imiss++;
        return INH_IMISS_END;
    }

    if (op == OP_ALU) {
        if (poisoned[t->prod1[j]] == stamp || poisoned[t->prod2[j]] == stamp)
            poisoned[j] = stamp;
    } else if (op == OP_LOAD || op == OP_CAS || op == OP_LDSTUB) {
        if (poisoned[t->prod1[j]] == stamp
            || poisoned[t->prod2[j]] == stamp) {
            poisoned[j] = stamp;
            if (op != OP_LOAD)
                dead[j] = stamp;
        } else {
            const int32_t m = t->memdep[j];
            const int stale = dead[m] == stamp || poisoned[m] == stamp;
            if (t->live_dmiss[j] && s->accesses < c->mshr_cap) {
                t->live_dmiss[j] = 0;
                s->accesses++;
                s->e_dmiss++;
                if (t->vp_ok[j])
                    t->unvalidated[j] = stamp;
                else
                    poisoned[j] = stamp;
            } else if (t->live_dmiss[j]) {
                /* MSHRs full: the miss cannot be prefetched; it stays
                 * live and triggers a later epoch. */
                poisoned[j] = stamp;
                if (op != OP_LOAD)
                    dead[j] = stamp;
            } else if (stale) {
                poisoned[j] = stamp;
            }
            if (op != OP_LOAD && poisoned[t->prod3[j]] == stamp)
                dead[j] = stamp;
        }
    } else if (op == OP_STORE) {
        if (poisoned[t->prod1[j]] == stamp || poisoned[t->prod2[j]] == stamp
            || poisoned[t->prod3[j]] == stamp)
            dead[j] = stamp;
    } else if (op == OP_BRANCH) {
        const int32_t p1 = t->prod1[j];
        const int32_t p2 = t->prod2[j];
        const int unsettled =
            poisoned[p1] == stamp || t->unvalidated[p1] == stamp
            || poisoned[p2] == stamp || t->unvalidated[p2] == stamp;
        if (unsettled && t->mispred[j] && !slow_bp_saves(c, j))
            return INH_MISPRED_BR;
    } else if (op == OP_PREFETCH) {
        if (poisoned[t->prod1[j]] != stamp && t->live_pmiss[j]
            && t->pfuseful[j] && s->accesses < c->mshr_cap) {
            t->live_pmiss[j] = 0;
            s->accesses++;
            s->e_pmiss++;
        }
    }
    /* MEMBAR: no constraint during runahead (purely speculative). */
    return -1;
}

/* Normal mode skips from one live off-chip event to the next; a
 * missing load starts a runahead period.  fetch_pos never decreases
 * and event flags are only ever cleared, so a forward scan of the live
 * masks finds the event the runahead oracle's bisect finds. */
/* certify: buffer imiss_src length n content 0 .. 1 */
static void simulate_runahead(Trace *t, const KernelConfig *c,
                              KernelResult *r, const uint8_t *imiss_src)
{
    const int64_t n = t->n;
    int64_t fetch_pos = 0;
    int64_t pending_len = 0;
    int64_t i, j, limit;
    int inhibitor;
    Scan s;

    memcpy(t->imiss, imiss_src, (size_t)n);
    memcpy(t->live_dmiss, t->dmiss, (size_t)n);
    memcpy(t->live_pmiss, t->pmiss, (size_t)n);
    memset(t->poisoned, 0, sizeof(int32_t) * (size_t)(n + 1));
    memset(t->unvalidated, 0, sizeof(int32_t) * (size_t)(n + 1));
    memset(t->dead_store, 0, sizeof(int32_t) * (size_t)(n + 1));
    memset(r, 0, sizeof(*r));
    r->error_index = -1;

    for (;;) {
        /* ---- normal mode: skip to the next live off-chip event ---- */
        i = fetch_pos;
        while (i < n && !t->imiss[i] && !t->live_dmiss[i]
               && !(t->live_pmiss[i] && t->pfuseful[i]))
            i++;
        if (i >= n)
            break; /* no further events: the tail is on-chip execution */

        s.accesses = 1; /* the trigger's own access */
        s.e_dmiss = 0;
        s.e_imiss = 0;
        s.e_pmiss = 0;
        if (t->imiss[i]) {
            /* Fetch is blocking: a missing instruction fetch cannot be
             * run ahead of.  It forms its own epoch (plus any
             * prefetches still in flight). */
            t->imiss[i] = 0;
            s.e_imiss = 1;
            flush_stale_prefetches(t, c, r, &s, pending_len, i);
            pending_len = 0;
            record_epoch(r, &s, INH_IMISS_START);
            fetch_pos = i; /* the instruction executes after the fetch */
            continue;
        }
        if (t->live_pmiss[i]) {
            /* A useful off-chip software prefetch does not stall; it
             * joins the next epoch if one begins within a runahead
             * window. */
            t->live_pmiss[i] = 0;
            /* certify: assume pending_len <= i -- the list holds
             * distinct prefetch indices below i: each joins once, when
             * fetch passes it, and its pmiss flag is cleared */
            t->pending_pf[pending_len++] = (int32_t)i;
            fetch_pos = i + 1;
            continue;
        }

        /* ---- runahead period, triggered by the missing load at i ---- */
        t->live_dmiss[i] = 0;
        s.e_dmiss = 1;
        flush_stale_prefetches(t, c, r, &s, pending_len, i);
        pending_len = 0;
        const int32_t stamp = (int32_t)(i + 1);
        /* Value-predicted results are usable for dataflow but remain
         * unvalidated until the real data returns. */
        if (t->vp_ok[i])
            t->unvalidated[i] = stamp;
        else
            t->poisoned[i] = stamp;

        limit = i + c->max_runahead;
        if (limit > n)
            limit = n;
        inhibitor = -1;
        for (j = i + 1; j < limit; j++) {
            inhibitor = runahead_step(t, c, &s, j, stamp);
            if (inhibitor >= 0)
                break;
        }
        if (inhibitor < 0)
            inhibitor = j >= n ? INH_END_OF_TRACE : INH_RUNAHEAD_LIMIT;
        record_epoch(r, &s, inhibitor);
        fetch_pos = i + 1; /* flush and restart after the trigger */
    }

    flush_stale_prefetches(t, c, r, &s, pending_len,
                           n + 2 * c->max_runahead);
}

/* Entry point: simulate every config against the shared columns.
 * Returns 0 on success, -1 on allocation failure.  Per-config
 * no-progress errors are reported in results[k].error_index. */
int mlpsim_batch(int64_t n,
                 const int8_t *ops,
                 const int32_t *prod1, const int32_t *prod2,
                 const int32_t *prod3, const int32_t *memdep,
                 const uint8_t *dmiss, const uint8_t *imiss,
                 const uint8_t *mispred, const uint8_t *pmiss,
                 const uint8_t *pfuseful, const uint8_t *vp_ok,
                 const uint8_t *smiss, const uint8_t *scalar_mask,
                 const KernelConfig *configs, int64_t nconfigs,
                 KernelResult *results)
{
    Trace t;
    int64_t k;
    int status = -1;

    t.n = n;
    t.ops = ops;
    t.prod1 = prod1;
    t.prod2 = prod2;
    t.prod3 = prod3;
    t.memdep = memdep;
    t.dmiss = dmiss;
    t.mispred = mispred;
    t.pmiss = pmiss;
    t.pfuseful = pfuseful;
    t.vp_ok = vp_ok;
    t.smiss = smiss;
    t.scalar_mask = scalar_mask;

    t.imiss = (uint8_t *)malloc((size_t)n ? (size_t)n : 1);
    t.res = (int32_t *)malloc(sizeof(int32_t) * (size_t)(2 * n + 2));
    t.deferred = (int32_t *)malloc(sizeof(int32_t) * (size_t)(n + 1));
    t.new_deferred = (int32_t *)malloc(sizeof(int32_t) * (size_t)(n + 1));
    t.live_dmiss = (uint8_t *)malloc((size_t)n ? (size_t)n : 1);
    t.live_pmiss = (uint8_t *)malloc((size_t)n ? (size_t)n : 1);
    t.poisoned = (int32_t *)malloc(sizeof(int32_t) * (size_t)(n + 1));
    t.unvalidated = (int32_t *)malloc(sizeof(int32_t) * (size_t)(n + 1));
    t.dead_store = (int32_t *)malloc(sizeof(int32_t) * (size_t)(n + 1));
    t.pending_pf = (int32_t *)malloc(sizeof(int32_t) * (size_t)(n + 1));
    if (t.imiss && t.res && t.deferred
        && t.new_deferred && t.live_dmiss && t.live_pmiss && t.poisoned
        && t.unvalidated && t.dead_store && t.pending_pf) {
        for (k = 0; k < nconfigs; k++) {
            if (configs[k].runahead)
                simulate_runahead(&t, &configs[k], &results[k], imiss);
            else
                simulate_ooo(&t, &configs[k], &results[k], imiss);
        }
        status = 0;
    }

    free(t.imiss);
    free(t.res);
    free(t.deferred);
    free(t.new_deferred);
    free(t.live_dmiss);
    free(t.live_pmiss);
    free(t.poisoned);
    free(t.unvalidated);
    free(t.dead_store);
    free(t.pending_pf);
    return status;
}
