"""Synthetic OLTP database workload.

Stands in for the paper's proprietary database trace.  The published
characteristics it is calibrated to (Tables 1/5/6, Figures 2/5):

* the highest L2 load-miss rate of the three workloads (~0.84/100 insts);
* a multi-megabyte instruction footprint, making missing instruction
  fetches 12-18% of epoch triggers;
* misses that are *clustered* and partly *dependent* — B-tree index
  descents are pointer chases whose next node address comes from the
  missing load itself, while row/buffer accesses are independent bursts;
* locking via CASA and MEMBAR;
* branches on fetched row data, some of which mispredict while dependent
  on an off-chip load (the unresolvable mispredictions of Section 3.2.4);
* moderate value locality on missing loads (Table 6: 42% last-value
  correct).

One transaction = a fixed script at fixed PCs (parse/dispatch calls into
the code footprint, one or two index descents, a row burst — possibly
under a CASA/MEMBAR lock — and a log write).  All randomness appears as
branch outcomes, loop trip counts, callee selection and data addresses,
never as fresh code addresses, so the I-caches and predictors see a
stable static program.
"""

from repro.workloads.base import SyntheticWorkload
from repro.workloads.codegen import CodeFootprint
from repro.workloads.synthesis import (
    BranchSites,
    RecentPool,
    Region,
    ValueSites,
)

# Register conventions (codegen reserves 1-3 as region base registers
# and 16-47 as template scratch).
_CHASE = 8  # B-tree node pointer
_ROWBASE = 9  # row address being assembled
_FIELD0 = 10  # loaded row fields
_FIELD1 = 11
_CMP = 12  # key comparison temporary
_LOCK = 14  # lock word
_LOGV = 15  # value being logged
_CTR = 5  # loop counters (on-chip, never miss-dependent)

# Motif constants.  The compiled generator (repro.workloads.ckernel)
# reads these too, so a recalibration edits them here only.
#: Lines between successive fresh B-tree nodes and fresh rows.
DESCENT_STRIDE_LINES = 97
ROW_STRIDE_LINES = 131
#: Chance that a row burst reads the row's second line.
SECOND_FIELD_PROBABILITY = 0.3
#: Words per log record (inclusive range).
LOG_WORDS = (2, 4)


class DatabaseWorkload(SyntheticWorkload):
    """OLTP-style trace generator (the paper's "Database" workload)."""

    name = "database"

    def __init__(self, seed=1234, num_functions=220, body_length=56,
                 calls_per_txn=(7, 13), descent_depth=(3, 4),
                 rows_per_txn=(4, 6), row_spacing=36,
                 second_descent_probability=0.25, lock_probability=0.5,
                 reuse_fraction=0.5, reuse_lines=5000, chase_value_repeat=0.89,
                 row_value_repeat=0.86, data_branch_bias=0.88):
        super().__init__(seed=seed)
        self.num_functions = num_functions
        self.body_length = body_length
        self.calls_per_txn = calls_per_txn
        self.descent_depth = descent_depth
        self.rows_per_txn = rows_per_txn
        self.row_spacing = row_spacing
        self.second_descent_probability = second_descent_probability
        self.lock_probability = lock_probability
        self.reuse_fraction = reuse_fraction
        self.reuse_lines = reuse_lines
        self.chase_value_repeat = chase_value_repeat
        self.row_value_repeat = row_value_repeat
        self.data_branch_bias = data_branch_bias

    def setup(self, rng):
        # ~220 functions x ~230B ≈ 0.9MB of code: far beyond the L1I and
        # a large tenant of the 2MB shared L2 it contends for with data.
        self.code = CodeFootprint(
            rng,
            num_functions=self.num_functions,
            body_length=self.body_length,
            zipf_exponent=1.3,
            template_pool=48,
            branch_fraction=0.13,
        )
        self.hot = Region(0x1000_0000, 12 * 1024)  # L1-resident metadata
        self.warm = Region(0x2000_0000, 96 * 1024)  # L2-resident caches
        self.index = Region(0x4000_0000, 192 * 1024 * 1024)  # B-tree nodes
        self.rows = Region(0x5000_0000, 192 * 1024 * 1024)  # buffer pool
        # Recently-used rows and index nodes are re-touched inside later
        # bursts (a row cache): those lines are resident in a large L2
        # and evicted from a small one, which is what the L2 sweep of
        # Figure 7 moves — and because they sit *inside* miss clusters,
        # a bigger L2 thins the clusters and MLP falls, as in the paper.
        self.recent_rows = RecentPool(self.reuse_lines)
        self.recent_nodes = RecentPool(self.reuse_lines // 2)
        self.log = Region(0x6000_0000, 64 * 1024 * 1024)
        self.locks = Region(0x1100_0000, 4 * 1024)
        self.values = ValueSites(repeat_prob=self.row_value_repeat)
        self.chase_values = ValueSites(repeat_prob=self.chase_value_repeat)
        self.branches = BranchSites(predictable_fraction=0.96, strong_bias=0.98)
        self.context = {
            "hot": self.hot,
            "warm": self.warm,
            "values": self.values,
            "branches": self.branches,
        }
        # Fixed motif-block addresses (below the code footprint),
        # staggered so blocks do not alias in the PC-indexed predictors.
        self.txn_base = 0x0080_0000
        self.descent_base = 0x0081_0100
        self.rows_base = 0x0082_0200
        self.lock_base = 0x0083_0300

    # -- motif blocks (fixed PCs) -----------------------------------------

    def _descent(self, em, rng):
        """Pointer-chase down a B-tree at the fixed descent block.

        Each level's node address comes from the previous level's
        (missing) load: the misses are truly dependent, one epoch each
        on a conventional machine, and only value prediction can
        parallelise them.
        """
        ret = em.call_block(self.descent_base)
        em.alu(_CHASE, 1, 7)  # root address from hot metadata
        depth = rng.randint(*self.descent_depth)
        head = em.pc
        for level in range(depth):
            em.pc = head
            node = None
            if rng.random() < self.reuse_fraction:
                node = self.recent_nodes.sample(rng)
            if node is None:
                node = self.index.next_line(stride_lines=DESCENT_STRIDE_LINES)
                self.recent_nodes.insert(node)
            em.load(_CHASE, node, src1=_CHASE,
                    value=self.chase_values.value(rng, em.pc))
            em.alu(_CMP, _CHASE, 1)  # key comparison on fetched node
            branch_site = em.pc
            self.branches.force_bias(branch_site, self.data_branch_bias)
            taken = self.branches.outcome(rng, branch_site)
            em.branch(taken, branch_site + 12, src1=_CMP)
            if not taken:
                em.alu(_FIELD0, _CMP, 7)
                em.alu(_CHASE, _CHASE, _FIELD0)
            em.branch(level + 1 < depth, head, src1=_CTR)
        em.jump(ret)

    def _rows(self, em, rng):
        """Row burst at the fixed rows block: independent off-chip lines
        (each address is assembled from on-chip state)."""
        ret = em.call_block(self.rows_base)
        count = rng.randint(*self.rows_per_txn)
        head = em.pc
        for r in range(count):
            em.pc = head
            em.alu(_ROWBASE, 3, 7)
            row = None
            if rng.random() < self.reuse_fraction:
                row = self.recent_rows.sample(rng)
            if row is None:
                row = self.rows.next_line(stride_lines=ROW_STRIDE_LINES)
                self.recent_rows.insert(row)
            em.load(_FIELD0, row, src1=_ROWBASE,
                    value=self.values.value(rng, em.pc))
            em.alu(_LOGV, _FIELD0, _LOGV)
            second = rng.random() < SECOND_FIELD_PROBABILITY
            em.branch(not second, em.pc + 8, src1=_CTR)
            if second:
                em.load(_FIELD1, row + 64, src1=_ROWBASE,
                        value=self.values.value(rng, em.pc))
            # Per-row processing keeps consecutive rows further apart
            # than a 64-entry window but well inside a runahead period.
            for k in range(self.row_spacing):
                em.alu(20 + (k & 7), 20 + ((k + 1) & 7), 1)
            em.branch(r + 1 < count, head, src1=_CTR)
        em.jump(ret)

    def _locked_rows(self, em, rng):
        """CASA acquire / MEMBAR + store release around a row burst."""
        ret = em.call_block(self.lock_base)
        lock_addr = self.locks.random_addr(rng)
        em.alu(_LOCK, 1, 0)
        em.cas(_LOCK, lock_addr, src1=1, data_src=_LOCK, value=0)
        self._rows(em, rng)
        em.membar()
        em.store(lock_addr, data_src=0, src1=1)
        em.jump(ret)

    # -- transaction driver (fixed script) ---------------------------------

    def emit_transaction(self, em, rng):
        base = self.txn_base
        em.jump(base)

        # Parse/dispatch: calls into the large code footprint.
        calls = rng.randint(*self.calls_per_txn)
        for k in range(calls):
            em.pc = base
            self.code.call(em, rng, self.context)
            em.branch(k + 1 < calls, base, src1=_CTR)  # base+4

        # Index descents.
        descents = 2 if rng.random() < self.second_descent_probability else 1
        for d in range(descents):
            em.pc = base + 8
            self._descent(em, rng)
            em.branch(d + 1 < descents, base + 8, src1=_CTR)  # base+12

        # Row access, possibly under a lock.
        locked = rng.random() < self.lock_probability
        em.pc = base + 16
        em.branch(locked, base + 28, src1=_CTR)
        if not locked:
            self._rows(em, rng)  # call site base+20, returns to base+24
            em.jump(base + 36)  # base+24
        else:
            em.pc = base + 28
            self._locked_rows(em, rng)  # returns to base+32
            em.jump(base + 36)  # base+32

        # Log write.
        em.pc = base + 36
        words = rng.randint(*LOG_WORDS)
        log_line = self.log.next_line()
        for w in range(words):
            em.pc = base + 36
            em.store(log_line + 8 * w, data_src=_LOGV, src1=4)
            em.branch(w + 1 < words, base + 36, src1=_CTR)  # base+40
        # Transaction ends at base+44; the next one jumps from here.
