"""Synthetic SPECjbb2000-like workload.

Stands in for the paper's middle-tier Java server benchmark.  Published
characteristics it is calibrated to:

* low L2 load-miss rate (~0.19/100 insts) against a multi-megabyte heap;
* a *small* instruction footprint — SPECjbb has no instruction-fetch
  problem (Figure 10: perfect I-prefetch gains nothing);
* CASA object locking at >0.6% of dynamic instructions (Section 3.2.2),
  which makes serializing instructions the dominant MLP inhibitor at
  large windows (Figure 5) and runahead spectacularly effective
  (Figure 8);
* misses that are mostly independent of each other (object field loads
  whose addresses come from on-chip tables), so the MLP headroom is
  real once serialization is removed;
* poor value locality on missing loads (Table 6: 20% last-value
  correct).

One transaction = a fixed script: dispatch calls through a small warm
code base, then a few locked object operations (CASA acquire, field
reads — occasionally cold —, an update, MEMBAR + store release), and
occasionally a young-generation allocation.
"""

from repro.workloads.base import SyntheticWorkload
from repro.workloads.codegen import CodeFootprint
from repro.workloads.synthesis import (
    BranchSites,
    RecentPool,
    Region,
    ValueSites,
)

_OBJ = 8  # object base address register
_FIELD = 10  # loaded fields
_LOCK = 14
_ALLOC = 15
_CTR = 5  # loop counters (on-chip)

# Motif constants.  The compiled generator (repro.workloads.ckernel)
# reads these too, so a recalibration edits them here only.
#: Lines between successive fresh old-generation objects.
OBJECT_STRIDE_LINES = 61
#: Chance that a cold object is a recently touched one.
RECENT_OBJECT_PROBABILITY = 0.45
#: Chance that a four-field object spills onto a second line.
SECOND_LINE_PROBABILITY = 0.45
#: Taken bias of the branch on the fetched object fields.
OBJECT_BRANCH_BIAS = 0.78
#: Words stored per young-generation allocation (inclusive range).
ALLOC_WORDS = (3, 6)


class SpecJBBWorkload(SyntheticWorkload):
    """SPECjbb2000-style trace generator."""

    name = "specjbb2000"

    def __init__(self, seed=1234, num_functions=72, body_length=44,
                 calls_per_txn=(8, 16), cold_object_probability=0.7,
                 fields_per_object=(2, 4), objects_per_txn=(1, 3),
                 alloc_probability=0.25, value_repeat=0.88):
        super().__init__(seed=seed)
        self.num_functions = num_functions
        self.body_length = body_length
        self.calls_per_txn = calls_per_txn
        self.cold_object_probability = cold_object_probability
        self.fields_per_object = fields_per_object
        self.objects_per_txn = objects_per_txn
        self.alloc_probability = alloc_probability
        self.value_repeat = value_repeat

    def setup(self, rng):
        # ~72 functions x ~200B ≈ 15KB of code: essentially L1I-resident.
        self.code = CodeFootprint(
            rng,
            num_functions=self.num_functions,
            body_length=self.body_length,
            zipf_exponent=0.9,
        )
        self.hot = Region(0x1000_0000, 12 * 1024)
        self.warm = Region(0x2000_0000, 96 * 1024)  # warm heap / tables
        self.heap = Region(0x4000_0000, 128 * 1024 * 1024)  # old gen
        # Recently-touched old-generation objects are revisited (hot
        # object set): resident in a large L2, evicted from a small one.
        self.recent_objects = RecentPool(2000)
        self.young = Region(0x5000_0000, 64 * 1024 * 1024)  # allocation
        self.locks = Region(0x1100_0000, 8 * 1024)
        self.values = ValueSites(repeat_prob=self.value_repeat)
        self.branches = BranchSites(predictable_fraction=0.88)
        self.context = {
            "hot": self.hot,
            "warm": self.warm,
            "values": self.values,
            "branches": self.branches,
        }
        self.txn_base = 0x0080_0000
        self.object_base = 0x0081_0100
        self.alloc_base = 0x0082_0200

    # -- motif blocks (fixed PCs) ------------------------------------------

    def _object_access(self, em, rng):
        """One locked object operation at the fixed object block.

        The object's address comes from an on-chip table, so the misses
        of *different* objects are independent — but the CASA/MEMBAR
        pair around every operation keeps a conventional machine from
        ever overlapping them.
        """
        ret = em.call_block(self.object_base)
        cold = rng.random() < self.cold_object_probability
        # Object table lookup (hot) and address arithmetic.
        em.load(_OBJ, self.hot.random_addr(rng), src1=1,
                value=self.values.value(rng, em.pc))
        em.alu(_OBJ, _OBJ, 7)
        # Acquire.
        lock_addr = self.locks.random_addr(rng)
        em.alu(_LOCK, 1, 0)
        em.cas(_LOCK, lock_addr, src1=1, data_src=_LOCK, value=0)
        # Field reads: a small burst across the object's lines.
        if cold:
            obj = None
            if rng.random() < RECENT_OBJECT_PROBABILITY:
                obj = self.recent_objects.sample(rng)
            if obj is None:
                obj = self.heap.next_line(stride_lines=OBJECT_STRIDE_LINES)
                self.recent_objects.insert(obj)
        else:
            obj = self.warm.line_of(self.warm.random_addr(rng))
        fields = rng.randint(*self.fields_per_object)
        # Large objects occasionally spill onto a second line, which is
        # the only intra-object miss overlap a conventional window sees.
        second_line = fields == 4 and rng.random() < SECOND_LINE_PROBABILITY
        head = em.pc
        for f in range(fields):
            em.pc = head
            offset = 64 if (f == 3 and second_line) else 0
            em.load(_FIELD, obj + offset + 8 * (f % 4), src1=_OBJ,
                    value=self.values.value(rng, em.pc))
            em.alu(_FIELD, _FIELD, 1)
            em.branch(f + 1 < fields, head, src1=_CTR)
        # Business logic on the fetched fields: a branch whose condition
        # depends on the (possibly missing) object data.  When it
        # mispredicts it is unresolvable — the condition the paper's
        # perfect-BP limit study removes (Figure 10).
        branch_site = em.pc
        self.branches.force_bias(branch_site, OBJECT_BRANCH_BIAS)
        taken = self.branches.outcome(rng, branch_site)
        em.branch(taken, branch_site + 12, src1=_FIELD)
        if not taken:
            em.alu(_FIELD, _FIELD, 7)
            em.alu(_FIELD, _FIELD, 1)
        # Update and release.
        em.store(obj + 8, data_src=_FIELD, src1=_OBJ)
        em.membar()
        em.store(lock_addr, data_src=0, src1=1)
        em.jump(ret)

    def _allocate(self, em, rng):
        """Young-generation allocation: sequential stores on fresh lines."""
        ret = em.call_block(self.alloc_base)
        line = self.young.next_line()
        em.alu(_ALLOC, 3, 7)
        words = rng.randint(*ALLOC_WORDS)
        head = em.pc
        for w in range(words):
            em.pc = head
            em.store(line + 8 * w, data_src=_ALLOC, src1=_ALLOC)
            em.branch(w + 1 < words, head, src1=_CTR)
        em.jump(ret)

    # -- transaction driver (fixed script) -----------------------------------

    def emit_transaction(self, em, rng):
        base = self.txn_base
        em.jump(base)

        calls = rng.randint(*self.calls_per_txn)
        for k in range(calls):
            em.pc = base
            self.code.call(em, rng, self.context)
            em.branch(k + 1 < calls, base, src1=_CTR)  # base+4

        objects = rng.randint(*self.objects_per_txn)
        for o in range(objects):
            em.pc = base + 8
            self._object_access(em, rng)
            em.branch(o + 1 < objects, base + 8, src1=_CTR)  # base+12

        allocate = rng.random() < self.alloc_probability
        em.pc = base + 16
        em.branch(not allocate, base + 24, src1=_CTR)
        if allocate:
            self._allocate(em, rng)  # call site base+20, returns base+24
        em.pc = base + 24
        em.alu(_CTR, _CTR, 7)
        # Transaction ends at base+28; the next one jumps from here.
