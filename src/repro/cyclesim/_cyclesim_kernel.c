/* Compiled cycle-accurate pipeline kernel.
 *
 * An event-driven C translation of the frozen oracle
 * repro/cyclesim/simulator_reference.py, held bit-identical to it by
 * tests/test_cyclesim_equivalence.py.  One cyclesim_batch() call runs
 * MANY pipeline configurations against one shared cycle plan: the
 * per-instruction tables are read-only and shared, the per-config
 * scratch (ready/wake times, ROB, issue window, MSHR) is allocated
 * once per call, and no config pays an O(n) reset: an instruction's
 * ready/wake slots are set when fetch first reaches it, fetch takes
 * each I-miss of the shared imiss column once without a copy, and the
 * MSHR hash is emptied of what a run leaves in flight.
 *
 * Layout (see repro.cyclesim.plan): producer columns are
 * region-relative int32 with sentinel n for "no producer", and addr/pc
 * are byte addresses, shifted to cache lines here by LINE_SHIFT.
 *
 * Structural notes (where this departs from the reference's data
 * structures without changing any observable):
 *
 *  - MSHR completions form a FIFO, not a heap: every entry completes
 *    exactly miss_penalty cycles after allocation and the clock never
 *    runs backwards, so completion order is allocation order.  The
 *    event wheel is a flat array scanned by a head cursor; entries
 *    double as MSHR records, chained into a small hash on the line
 *    number for merge lookups.
 *  - One time per instruction: the reference keeps result availability
 *    and commit eligibility apart, but every issue sets both to the
 *    same cycle, so ready[] serves for both.
 *  - Operand wake times memoise: a producer's ready time is written
 *    exactly once (at issue), so once every producer of an instruction
 *    has issued its wake time is final.  Until then wake[] names the
 *    producer found unissued, and only that one is re-read until it
 *    issues.
 *  - No lists for the in-order policies: the issue scan walks the
 *    window oldest first, so it knows whether an older memop or
 *    branch is still waiting, and it compacts the window as it goes.
 *  - When a cycle retires/issues/moves nothing, the clock jumps to the
 *    next event (completion, wakeup, fetch restart, drain release) and
 *    the skipped span is charged to the stall category of the cycle.
 *
 * Shared names: the OP_* opcodes, the CAT_* stall-category indices
 * (STALL_CATEGORIES order, with N_CATEGORIES), the ST_* statuses,
 * NEVER and LINE_SHIFT (the frozen reference's _NEVER and
 * _LINE_SHIFT), the CycleConfig/CycleResult structs and the prototype
 * of cyclesim_batch
 * come from the header repro.cbuild renders from the Python
 * definitions (repro/cyclesim/ckernel.py) and compiles ahead of this
 * file.  The prototype is rendered from the entry point's one
 * declaration, in CYCLE_PLAN_CONTRACT (repro/cyclesim/plan.py), so
 * the compiler checks the definition below against it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Access kinds, matching the Python access() closure. */
#define KIND_DMISS 0
#define KIND_IMISS 1
#define KIND_PREFETCH 2

#define HASH_BITS 15
#define HASH_SIZE (1 << HASH_BITS)

/* The outstanding-access tracker, bit-for-bit the Python
 * OutstandingTracker: integral/nonzero only advance over spans where
 * the count is positive, and last_time only moves forward.  The count
 * is constant between two changes, so advancing at each change (and
 * once at the end) sums the same spans as advancing every cycle. */
typedef struct {
    /* certify: trusted range 0 .. 2 * n -- the outstanding accesses,
       of the at most 2n a run starts */
    int64_t count;
    int64_t last_time; /* certify: range 0 .. (1 << 53) */
    /* certify: trusted range 0 .. (1 << 60) -- a monotone per-run
       total, at most the accesses times miss_penalty */
    int64_t nonzero;
    /* certify: trusted range 0 .. (1 << 62) -- a monotone per-run
       total, at most 2n accesses outstanding for miss_penalty each */
    int64_t integral;
} Tracker;

/* certify: requires now >= 0 && now <= (1 << 53) */
static void trk_advance(Tracker *t, int64_t now)
{
    int64_t elapsed = now - t->last_time;
    if (elapsed > 0) {
        if (t->count > 0) {
            t->nonzero += elapsed;
            /* reprolint: disable=kernel-overflow -- integral sums count*dt over disjoint spans (at most 2n accesses outstanding for at most miss_penalty cycles each, < 2^47 total); the interval domain loses the span correlation and sees 2^53 * 2^27 */
            t->integral += elapsed * t->count;
        }
        t->last_time = now;
    }
}

/* certify: requires now >= 0 && now <= (1 << 53) */
/* certify: requires delta >= -1 && delta <= 1 */
static void trk_add(Tracker *t, int64_t now, int64_t delta)
{
    trk_advance(t, now);
    t->count += delta;
}

/* Everything one configuration run touches, bundled so access() stays
 * a readable function instead of a 15-argument call.  A column member
 * holds the cyclesim_batch parameter of its name.  Simulated times
 * stay below 2^53: the deadlock guard caps useful time far below
 * NEVER, and a completion adds one miss penalty on top. */
typedef struct {
    int64_t n; /* certify: range n .. n */
    const int8_t *ops;
    const int32_t *prod1, *prod2, *prod3, *memdep;
    const int64_t *addr, *pc;
    const uint8_t *dmiss, *imiss, *mispred, *pmiss, *pfuseful;

    /* Result and commit time, NEVER until issue; set when fetch first
     * reaches the instruction. */
    int64_t *ready; /* certify: buffer length n content 0 .. NEVER */
    /* Operand wake time once final, -1 unknown, -2 - p while waiting
     * on unissued p; set with ready[]. */
    int64_t *wake; /* certify: buffer length n content -n - 1 .. NEVER */

    /* MSHR entries double as completion-wheel slots (FIFO order). */
    /* certify: buffer length 2 * n content 0 .. (1 << 53) */
    int64_t *ent_done;
    /* certify: buffer length 2 * n content 0 .. (1 << 57) */
    int64_t *ent_line;
    uint8_t *ent_useful; /* certify: buffer length 2 * n content 0 .. 1 */
    /* Hash chains. */
    /* certify: buffer length 2 * n content -1 .. 2 * n - 1 */
    int32_t *ent_next;
    /* certify: buffer length HASH_SIZE content -1 .. 2 * n - 1 */
    int32_t *hash_head;
    int64_t ce_head; /* certify: range 0 .. 2 * n */
    /* certify: trusted range 0 .. 2 * n -- at most two wheel entries
       per instruction: one pc line at fetch (each I-miss is taken
       once), one data line at issue (each instruction issues once) */
    int64_t ce_tail;

    /* Ring buffer. */
    /* certify: buffer length rob_alloc content 0 .. n - 1 */
    int64_t *rob_buf;
    int64_t rob_alloc; /* certify: range rob_alloc .. rob_alloc */
    /* Program order, compacted by the issue scan. */
    /* certify: buffer length iw_alloc content 0 .. n - 1 */
    int64_t *iw_buf;
    /* Unresolved stores: pure FIFO, no wrap. */
    int64_t *urs_buf; /* certify: buffer length n content 0 .. n - 1 */
    /* Fetch queue ring. */
    /* certify: buffer length fq_alloc content 0 .. n - 1 */
    int64_t *fq_idx;
    /* certify: buffer length fq_alloc content 0 .. (1 << 53) */
    int64_t *fq_time;
    int64_t fq_alloc; /* certify: range fq_alloc .. fq_alloc */

    Tracker trk;
    CycleResult *out;
    int64_t miss_penalty; /* certify: range 0 .. (1 << 20) */
} Ctx;

/* The results of a config, in the header's CycleResult. */
/* certify: range CycleResult.cycles 0 .. (1 << 53) */
/* certify: trusted range CycleResult.offchip_accesses
   CycleResult.dmiss_accesses CycleResult.imiss_accesses
   CycleResult.prefetch_accesses 0 .. (1 << 60) -- monotone per-run
   totals, at most 2n accesses */
/* certify: range CycleResult.nonzero_cycles 0 .. (1 << 60) */
/* certify: range CycleResult.outstanding_integral 0 .. (1 << 62) */
/* certify: trusted buffer CycleResult.stalls length N_CATEGORIES
   content 0 .. (1 << 62) -- per-cycle stall counters: one increment
   per cycle */
/* certify: range CycleResult.status 0 .. 1 */
/* certify: range CycleResult.error_cycle 0 .. NEVER */
/* certify: range CycleResult.error_committed 0 .. n */

/* certify: returns 0 .. HASH_SIZE - 1 */
static uint64_t hash_line(int64_t line)
{
    uint64_t h = (uint64_t)line;
    h *= 0x9E3779B97F4A7C15ULL;
    return h >> (64 - HASH_BITS);
}

/* Start (or merge into) an off-chip access; returns completion time. */
/* certify: requires now >= 0 && now <= (1 << 52) */
/* certify: requires line >= 0 && line <= (1 << 57) */
/* certify: requires useful >= 0 && useful <= 1 */
/* certify: returns 0 .. (1 << 53) */
static int64_t do_access(Ctx *c, int64_t now, int64_t line, int useful,
                         int kind)
{
    uint64_t b = hash_line(line);
    int32_t e = c->hash_head[b];
    while (e >= 0 && c->ent_line[e] != line)
        e = c->ent_next[e];
    if (e >= 0) {  /* merge with the in-flight access to this line */
        if (useful && !c->ent_useful[e]) {
            c->ent_useful[e] = 1;
            trk_add(&c->trk, now, 1);
        }
        return c->ent_done[e];
    }
    int64_t done = now + c->miss_penalty;
    /* certify: assume c->ce_tail <= 2 * n - 1 -- at most two wheel
       entries per instruction (one pc line at fetch, which takes each
       I-miss once; one data line at issue, and each instruction issues
       once), so the tail never reaches 2n */
    e = (int32_t)c->ce_tail++;
    c->ent_done[e] = done;
    c->ent_line[e] = line;
    c->ent_useful[e] = (uint8_t)useful;
    c->ent_next[e] = c->hash_head[b];
    c->hash_head[b] = e;
    if (useful) {
        trk_add(&c->trk, now, 1);
        c->out->offchip_accesses++;
        if (kind == KIND_DMISS)
            c->out->dmiss_accesses++;
        else if (kind == KIND_IMISS)
            c->out->imiss_accesses++;
        else
            c->out->prefetch_accesses++;
    }
    return done;
}

/* certify: requires i >= 0 && i <= n - 1 */
/* certify: returns 0 .. NEVER */
static int64_t wake_of(Ctx *c, int64_t i)
{
    int64_t w = c->wake[i];
    if (w >= 0)
        return w;
    if (w <= -2 && c->ready[-2 - w] == NEVER)
        return NEVER;  /* the producer it last found unissued still is */
    w = 0;
    int32_t p = c->prod1[i];
    if (p < c->n) {
        if (c->ready[p] == NEVER) {
            c->wake[i] = -2 - p;
            return NEVER;
        }
        if (c->ready[p] > w)
            w = c->ready[p];
    }
    p = c->prod2[i];
    if (p < c->n) {
        if (c->ready[p] == NEVER) {
            c->wake[i] = -2 - p;
            return NEVER;
        }
        if (c->ready[p] > w)
            w = c->ready[p];
    }
    p = c->prod3[i];
    if (p < c->n) {
        if (c->ready[p] == NEVER) {
            c->wake[i] = -2 - p;
            return NEVER;
        }
        if (c->ready[p] > w)
            w = c->ready[p];
    }
    c->wake[i] = w;  /* every producer issued: final */
    return w;
}

static void run_one(Ctx *c, const CycleConfig *cfg)
{
    /* certify: assume cfg->rob <= rob_alloc && cfg->issue_window <= iw_alloc && cfg->fetch_buffer <= fq_alloc -- cyclesim_batch sizes the scratch buffers to the maxima over all configs */
    const int64_t n = c->n;
    const int8_t *ops = c->ops;
    const int32_t *memdep = c->memdep;
    const uint8_t *dmiss = c->dmiss, *mispred = c->mispred;
    const uint8_t *pmiss = c->pmiss, *pfuseful = c->pfuseful;
    int64_t *ready = c->ready;
    CycleResult *out = c->out;

    const int load_in_order = (int)cfg->load_in_order;
    const int load_wait_staddr = (int)cfg->load_wait_staddr;
    const int branch_in_order = (int)cfg->branch_in_order;
    const int serializing = (int)cfg->serializing;
    const int perfect_l2 = (int)cfg->perfect_l2;
    const int event_skip = (int)cfg->event_skip;
    const int64_t l1_latency = cfg->l1_latency;
    const int64_t l2_latency = cfg->l2_latency;
    const int64_t alu_latency = cfg->alu_latency;
    const int64_t branch_latency = cfg->branch_latency;
    const int64_t frontend_depth = cfg->frontend_depth;
    const int64_t redirect_penalty = cfg->redirect_penalty;
    const int64_t commit_width = cfg->commit_width;
    const int64_t issue_width = cfg->issue_width;
    const int64_t dispatch_width = cfg->dispatch_width;
    const int64_t fetch_width = cfg->fetch_width;
    const int64_t fetch_buffer = cfg->fetch_buffer;
    const int64_t rob_size = cfg->rob;
    const int64_t iw_size = cfg->issue_window;
    c->miss_penalty = cfg->miss_penalty;

    /* Reset per-config scratch: O(1) here; ready[] and wake[] are set
     * as fetch reaches each instruction, and the hash arrives empty. */
    c->ce_head = c->ce_tail = 0;
    c->trk.count = c->trk.last_time = 0;
    c->trk.nonzero = c->trk.integral = 0;

    int64_t rob_head = 0, rob_count = 0;  /* ring over rob_buf */
    int64_t iw_count = 0;
    int64_t urs_head = 0, urs_tail = 0;
    int64_t fq_head = 0, fq_count = 0;

    int64_t fetch_ptr = 0;
    int64_t imiss_taken = -1;  /* fetch has taken the I-miss here */
    int64_t fetch_stall_until = 0;
    int waiting_redirect = 0;
    int64_t redirect_branch = -1;
    int64_t serializing_block_until = 0;
    int wait_reason_is_branch = 0;

    int64_t now = 0;
    int64_t committed = 0;

    while (committed < n) {
        /* certify: assume now >= 0 && now <= (1 << 52) && rob_count >= 0 && rob_count <= rob_alloc && rob_head >= 0 && rob_head <= rob_alloc - 1 && iw_count >= 0 && iw_count <= iw_alloc && fq_count >= 0 && fq_count <= fq_alloc && fq_head >= 0 && fq_head <= fq_alloc - 1 && urs_head >= 0 && urs_head <= urs_tail && urs_tail >= 0 && urs_tail <= n -- cycle-loop invariants: every queue insertion below is guarded by its capacity check, ring heads wrap on increment, at most one unresolved store per instruction, and simulated time only jumps to already-scheduled events (each at most miss_penalty ahead; total work is bounded by 3n events) */
        /* Retire completed off-chip accesses. */
        while (c->ce_head < c->ce_tail && c->ent_done[c->ce_head] <= now) {
            int64_t e = c->ce_head++;
            uint64_t b = hash_line(c->ent_line[e]);
            int32_t cur = c->hash_head[b];
            if (cur == (int32_t)e) {
                c->hash_head[b] = c->ent_next[e];
            } else {
                /* certify: assume cur >= 0 -- entry e is always linked
                   into its line's hash chain, so the walk stays inside
                   the chain until it finds e */
                while (c->ent_next[cur] != (int32_t)e)
                    cur = c->ent_next[cur];
                c->ent_next[cur] = c->ent_next[e];
            }
            if (c->ent_useful[e])
                trk_add(&c->trk, c->ent_done[e], -1);
        }

        int64_t activity = 0;
        int64_t committed_this_cycle = 0;

        /* ---- commit ---------------------------------------------- */
        for (int64_t k = 0; k < commit_width; k++) {
            if (rob_count == 0)
                break;
            int64_t head = c->rob_buf[rob_head];
            if (ready[head] > now)
                break;
            rob_head++;
            if (rob_head == c->rob_alloc)
                rob_head = 0;
            rob_count--;
            /* certify: assume committed <= n - 1 -- each commit retires
               a distinct one of the n instructions */
            committed++;
            /* certify: assume committed_this_cycle <= (1 << 16) - 1 --
               one increment per commit-loop iteration, and the loop is
               bounded by commit_width <= 2^16 */
            committed_this_cycle++;
            /* certify: assume activity <= (1 << 18) -- at most one
               increment per commit, issue, dispatch, or fetch slot per
               cycle, and each width is <= 2^16 */
            activity++;
        }

        /* ---- issue ----------------------------------------------- */
        /* One oldest-first pass over the window: an entry that issues
         * leaves a gap, which the entries behind it close as the scan
         * reaches them.  The window holds every dispatched, unissued
         * instruction in program order, so the in-order policies need
         * no lists of their own: the entry scanned is the oldest
         * unissued memop (branch) exactly when no older memop (branch)
         * stayed behind earlier in the pass. */
        if (iw_count > 0 && now >= serializing_block_until) {
            int64_t issued_this_cycle = 0;
            int memop_waits = 0, branch_waits = 0;
            int64_t pos = 0, kept = 0;
            while (pos < iw_count && issued_this_cycle < issue_width) {
                int64_t i = c->iw_buf[pos];
                pos++;
                int op = ops[i];
                int64_t done = -1;  /* stays -1 while i waits */

                if (serializing &&
                    (op == OP_CAS || op == OP_LDSTUB || op == OP_MEMBAR) &&
                    (rob_count == 0 || c->rob_buf[rob_head] != i)) {
                    /* drain: only the ROB head may issue */
                } else if (wake_of(c, i) > now) {
                    /* an operand is not ready */
                } else if (op == OP_LOAD || op == OP_CAS || op == OP_LDSTUB) {
                    int32_t m = memdep[i];
                    int waits = (m < n && ready[m] > now) ||  /* its store */
                                (load_in_order && memop_waits);
                    if (!waits && load_wait_staddr) {
                        /* A resolved store stays resolved, so popping
                           the resolved ones here reads the same head
                           whenever it happens. */
                        while (urs_head < urs_tail) {
                            int64_t s = c->urs_buf[urs_head];
                            int64_t addr_when = 0;
                            int32_t p = c->prod1[s];
                            if (p < n && ready[p] > addr_when)
                                addr_when = ready[p];
                            p = c->prod2[s];
                            if (p < n && ready[p] > addr_when)
                                addr_when = ready[p];
                            if (addr_when > now)
                                break;
                            urs_head++;
                        }
                        waits = urs_head < urs_tail && c->urs_buf[urs_head] < i;
                    }
                    if (!waits) {
                        if (!dmiss[i])
                            done = now + l1_latency;
                        else if (perfect_l2)
                            done = now + l2_latency;
                        else
                            done = do_access(c, now,
                                             c->addr[i] >> LINE_SHIFT, 1,
                                             KIND_DMISS);
                        if (serializing && op != OP_LOAD)
                            serializing_block_until = done;
                    }
                } else if (op == OP_STORE) {
                    if (!(load_in_order && memop_waits))
                        done = now + 1;
                } else if (op == OP_PREFETCH) {
                    if (pmiss[i] && !perfect_l2)
                        do_access(c, now, c->addr[i] >> LINE_SHIFT,
                                  pfuseful[i], KIND_PREFETCH);
                    done = now + 1;
                } else if (op == OP_BRANCH) {
                    if (!(branch_in_order && branch_waits)) {
                        done = now + branch_latency;
                        if (i == redirect_branch) {
                            fetch_stall_until = done + redirect_penalty;
                            redirect_branch = -1;
                            waiting_redirect = 0;
                            wait_reason_is_branch = 1;
                        }
                    }
                } else if (op == OP_MEMBAR) {
                    done = now + 1;
                    if (serializing)
                        serializing_block_until = now + 1;
                } else {  /* ALU / NOP */
                    done = now + alu_latency;
                }

                if (done < 0) {  /* i stays, and holds back its peers */
                    if (op == OP_LOAD || op == OP_STORE || op == OP_PREFETCH ||
                        op == OP_CAS || op == OP_LDSTUB)
                        memop_waits = 1;
                    else if (op == OP_BRANCH)
                        branch_waits = 1;
                    /* certify: assume kept <= pos - 1 -- kept counts the
                       entries this pass kept, at most one per scanned
                       slot, and pos has already moved past i */
                    c->iw_buf[kept++] = i;
                    continue;
                }
                ready[i] = done;
                issued_this_cycle++;
                if (serializing && (op == OP_CAS || op == OP_LDSTUB))
                    break;  /* drain: nothing younger issues this cycle */
            }
            if (kept < pos) {  /* entries issued: the rest close the gap */
                while (pos < iw_count) {
                    /* certify: assume kept <= pos - 1 -- the gap is
                       pos - kept >= 1 slots wide, and both advance
                       together */
                    c->iw_buf[kept++] = c->iw_buf[pos];
                    pos++;
                }
                iw_count = kept;
                /* certify: assume issued_this_cycle <= (1 << 16) -- bounded by the issue_width guard, which the widened loop exit loses */
                activity += issued_this_cycle;
            }
        }

        /* ---- dispatch -------------------------------------------- */
        int64_t dispatched = 0;
        while (fq_count > 0 && dispatched < dispatch_width &&
               c->fq_time[fq_head] <= now && rob_count < rob_size &&
               iw_count < iw_size) {
            int64_t i = c->fq_idx[fq_head];
            int op = ops[i];
            if (serializing &&
                (op == OP_CAS || op == OP_LDSTUB || op == OP_MEMBAR) &&
                rob_count > 0)
                break;  /* serializing op enters an empty backend only */
            fq_head++;
            if (fq_head == c->fq_alloc)
                fq_head = 0;
            fq_count--;
            int64_t tail = rob_head + rob_count;
            if (tail >= c->rob_alloc)
                tail -= c->rob_alloc;
            c->rob_buf[tail] = i;
            rob_count++;
            c->iw_buf[iw_count++] = i;
            if (op == OP_STORE && load_wait_staddr)
                /* certify: assume urs_tail <= n - 1 -- stores enter the
                   unresolved-store FIFO once each, so at most n
                   entries are ever appended */
                c->urs_buf[urs_tail++] = i;
            dispatched++;
        }
        /* certify: assume dispatched <= (1 << 16) -- bounded by the dispatch_width guard, which the widened loop exit loses */
        activity += dispatched;

        /* ---- fetch ----------------------------------------------- */
        if (now >= fetch_stall_until && !waiting_redirect) {
            int64_t fetched = 0;
            while (fetch_ptr < n && fetched < fetch_width &&
                   fq_count < fetch_buffer) {
                int64_t i = fetch_ptr;
                if (c->imiss[i] && i != imiss_taken) {
                    /* fetch_ptr never moves back, so once taken the
                       miss stays behind it */
                    imiss_taken = i;
                    int64_t done;
                    if (perfect_l2)
                        done = now + l2_latency;
                    else
                        done = do_access(c, now, c->pc[i] >> LINE_SHIFT, 1,
                                         KIND_IMISS);
                    fetch_stall_until = done;
                    wait_reason_is_branch = 0;
                    break;
                }
                int64_t slot = fq_head + fq_count;
                if (slot >= c->fq_alloc)
                    slot -= c->fq_alloc;
                c->fq_idx[slot] = i;
                c->fq_time[slot] = now + frontend_depth;
                ready[i] = NEVER;  /* first reached: not yet issued */
                c->wake[i] = -1;
                fq_count++;
                fetch_ptr++;
                fetched++;
                if (mispred[i]) {
                    waiting_redirect = 1;
                    redirect_branch = i;
                    break;
                }
            }
            /* certify: assume fetched <= (1 << 16) -- bounded by the fetch_width guard, which the widened loop exit loses */
            activity += fetched;
        }

        /* ---- attribute this cycle to the CPI stack --------------- */
        int cat;
        if (committed_this_cycle) {
            cat = CAT_COMMIT;
        } else if (rob_count > 0) {
            int64_t head = c->rob_buf[rob_head];
            if (ready[head] < NEVER) {
                int op = ops[head];
                if (serializing && (op == OP_CAS || op == OP_LDSTUB ||
                                    op == OP_MEMBAR))
                    cat = CAT_DRAIN;
                else if (dmiss[head] || op == OP_LOAD || op == OP_CAS ||
                         op == OP_LDSTUB)
                    cat = CAT_MEMORY;
                else
                    cat = CAT_BACKEND;
            } else {
                cat = CAT_BACKEND;
            }
        } else if (waiting_redirect ||
                   (redirect_branch == -1 && fetch_stall_until > now &&
                    fetch_ptr < n && wait_reason_is_branch)) {
            cat = CAT_BRANCH;
        } else if (fetch_stall_until > now) {
            cat = CAT_IFETCH;
        } else {
            cat = CAT_FRONTEND;
        }

        /* ---- advance time ---------------------------------------- */
        if (activity || !event_skip) {
            out->stalls[cat]++;
            now++;
            continue;
        }
        /* Fully stalled: jump to the next event (clock bulk-skip). */
        int64_t next_time = NEVER;
        if (c->ce_head < c->ce_tail)
            next_time = c->ent_done[c->ce_head];
        if (rob_count > 0) {
            int64_t t = ready[c->rob_buf[rob_head]];
            if (t < next_time)
                next_time = t;
        }
        /* certify: assume iw_count >= 0 && iw_count <= iw_alloc -- the
           issue-window list never outgrows its allocation (the same
           cycle-loop invariant assumed at the loop head above) */
        for (int64_t pos = 0; pos < iw_count; pos++) {
            int64_t w = wake_of(c, c->iw_buf[pos]);
            if (now < w && w < next_time)
                next_time = w;
        }
        if (fq_count > 0 && c->fq_time[fq_head] > now &&
            c->fq_time[fq_head] < next_time)
            next_time = c->fq_time[fq_head];
        if (!waiting_redirect && now < fetch_stall_until &&
            fetch_stall_until < next_time)
            next_time = fetch_stall_until;
        if (now < serializing_block_until &&
            serializing_block_until < next_time)
            next_time = serializing_block_until;
        if (next_time <= now || next_time >= NEVER) {
            out->status = ST_DEADLOCK;
            out->error_cycle = now;
            out->error_committed = committed;
            return;
        }
        out->stalls[cat] += next_time - now;
        now = next_time;
    }

    /* certify: assume now <= (1 << 52) -- simulated time only jumps to
       already-scheduled events, each at most miss_penalty ahead of the
       clock; total time is bounded by 3n events * 2^20 < 2^47 */
    trk_advance(&c->trk, now);
    out->cycles = now;
    out->nonzero_cycles = c->trk.nonzero;
    out->outstanding_integral = c->trk.integral;
    out->status = ST_OK;
}

int cyclesim_batch(
    int64_t n,
    const int8_t *ops,
    const int32_t *prod1, const int32_t *prod2, const int32_t *prod3,
    const int32_t *memdep,
    const int64_t *addr, const int64_t *pc,
    const uint8_t *dmiss, const uint8_t *imiss, const uint8_t *mispred,
    const uint8_t *pmiss, const uint8_t *pfuseful,
    const CycleConfig *configs, int64_t n_configs,
    CycleResult *results)
{
    Ctx c;
    memset(&c, 0, sizeof(c));
    c.n = n;
    c.ops = ops;
    c.prod1 = prod1;
    c.prod2 = prod2;
    c.prod3 = prod3;
    c.memdep = memdep;
    c.addr = addr;
    c.pc = pc;
    c.dmiss = dmiss;
    c.imiss = imiss;
    c.mispred = mispred;
    c.pmiss = pmiss;
    c.pfuseful = pfuseful;

    int64_t rob_max = 1, iw_max = 1, fq_max = 1;
    for (int64_t k = 0; k < n_configs; k++) {
        if (configs[k].rob > rob_max)
            rob_max = configs[k].rob;
        if (configs[k].issue_window > iw_max)
            iw_max = configs[k].issue_window;
        if (configs[k].fetch_buffer > fq_max)
            fq_max = configs[k].fetch_buffer;
    }
    /* The scratch sizes the proof is parametric over: the largest
     * config of the batch, inside the contract's ranges. */
    /* certify: symbol rob_alloc 1 .. (1 << 20) -- the largest rob */
    /* certify: symbol iw_alloc 1 .. (1 << 20) -- the largest issue_window */
    /* certify: symbol fq_alloc 1 .. (1 << 20) -- the largest fetch_buffer */
    /* certify: assume rob_max == rob_alloc && iw_max == iw_alloc && fq_max == fq_alloc -- the proof's allocation symbols are defined as exactly these maxima */
    c.rob_alloc = rob_max;
    c.fq_alloc = fq_max;

    size_t ni = (size_t)(n > 0 ? n : 1);
    c.ready = malloc(ni * sizeof(int64_t));
    c.wake = malloc(ni * sizeof(int64_t));
    c.ent_done = malloc(2 * ni * sizeof(int64_t));
    c.ent_line = malloc(2 * ni * sizeof(int64_t));
    c.ent_useful = malloc(2 * ni);
    c.ent_next = malloc(2 * ni * sizeof(int32_t));
    c.hash_head = malloc(HASH_SIZE * sizeof(int32_t));
    c.urs_buf = malloc(ni * sizeof(int64_t));
    c.rob_buf = malloc((size_t)rob_max * sizeof(int64_t));
    c.iw_buf = malloc((size_t)iw_max * sizeof(int64_t));
    c.fq_idx = malloc((size_t)fq_max * sizeof(int64_t));
    c.fq_time = malloc((size_t)fq_max * sizeof(int64_t));

    int ok = c.ready && c.wake &&
             c.ent_done && c.ent_line && c.ent_useful && c.ent_next &&
             c.hash_head && c.urs_buf && c.rob_buf && c.iw_buf &&
             c.fq_idx && c.fq_time;
    if (ok) {
        for (int64_t b = 0; b < HASH_SIZE; b++)
            c.hash_head[b] = -1;
        for (int64_t k = 0; k < n_configs; k++) {
            memset(&results[k], 0, sizeof(CycleResult));
            c.out = &results[k];
            run_one(&c, &configs[k]);
            /* Empty the hash for the next run: the entries still
               linked are exactly the wheel's [ce_head, ce_tail). */
            for (int64_t e = c.ce_head; e < c.ce_tail; e++)
                c.hash_head[hash_line(c.ent_line[e])] = -1;
        }
    }

    free(c.ready);
    free(c.wake);
    free(c.ent_done);
    free(c.ent_line);
    free(c.ent_useful);
    free(c.ent_next);
    free(c.hash_head);
    free(c.urs_buf);
    free(c.rob_buf);
    free(c.iw_buf);
    free(c.fq_idx);
    free(c.fq_time);
    return ok ? 0 : 1;
}
