"""Synthetic SPECweb99-like workload.

Stands in for the paper's web-server benchmark.  Published
characteristics it is calibrated to:

* the lowest L2 load-miss rate of the three (~0.09/100 insts) but
  *extremely* clustered misses (Figure 2): long stretches of fully
  on-chip request processing punctuated by dense bursts when a file
  chunk is pushed through the server;
* a significant number of *useful software prefetches* (the Table 5
  discussion: in-order MLP is highest for SPECweb99 because of them);
* a moderate instruction footprint giving I-miss epoch triggers around
  10-13% of epochs (Figure 5);
* almost no serializing instructions;
* burst misses that are mutually independent (buffer addresses are
  computed from on-chip descriptors), so MLP within a burst is limited
  only by the window — which is why issue configuration E and runahead
  help once whole bursts become reachable.

One transaction = a fixed script: HTTP parsing (hot calls through the
code footprint), a file-cache lookup, and — for a fraction of requests —
a send burst of prefetch+load pairs over consecutive cold lines.
"""

from repro.workloads.base import SyntheticWorkload
from repro.workloads.codegen import CodeFootprint
from repro.workloads.synthesis import BranchSites, RecentPool, Region, ValueSites

_BUF = 8  # current buffer pointer
_CHK = 10  # checksum accumulator
_DESC = 12  # file descriptor fields
_CTR = 5  # loop counters (on-chip)

# Motif constants.  The compiled generator (repro.workloads.ckernel)
# reads these too, so a recalibration edits them here only.
#: Lines between successive fresh burst segments and fresh descriptors.
SEGMENT_STRIDE_LINES = 83
DESCRIPTOR_STRIDE_LINES = 41
#: Chance that a cold lookup re-reads a recently served descriptor.
RECENT_FILE_PROBABILITY = 0.55


class SpecWebWorkload(SyntheticWorkload):
    """SPECweb99-style trace generator."""

    name = "specweb99"

    def __init__(self, seed=1234, num_functions=150, body_length=52,
                 calls_per_txn=(5, 11), burst_segments=(2, 6),
                 segment_extra_lines=(0, 2), prefetch_fraction=0.35,
                 burst_probability=0.055, independent_burst_fraction=0.2,
                 cold_lookup_probability=0.08, value_repeat=0.72):
        super().__init__(seed=seed)
        self.num_functions = num_functions
        self.body_length = body_length
        self.calls_per_txn = calls_per_txn
        self.burst_segments = burst_segments
        self.segment_extra_lines = segment_extra_lines
        self.prefetch_fraction = prefetch_fraction
        self.burst_probability = burst_probability
        self.independent_burst_fraction = independent_burst_fraction
        self.cold_lookup_probability = cold_lookup_probability
        self.value_repeat = value_repeat

    def setup(self, rng):
        # ~150 functions x ~230B ≈ 650KB of code: several times the L1I,
        # mostly L2-resident but contended by the file-data stream.
        self.code = CodeFootprint(
            rng,
            num_functions=self.num_functions,
            body_length=self.body_length,
            zipf_exponent=1.0,
            template_pool=48,
        )
        self.hot = Region(0x1000_0000, 16 * 1024)
        self.warm = Region(0x2000_0000, 48 * 1024)  # connection state
        self.files = Region(0x4000_0000, 256 * 1024 * 1024)  # file data
        # Recently-served file descriptors are re-looked-up: these are
        # scattered single accesses, so shrinking the L2 adds *low-MLP*
        # epochs — which is why SPECweb99's MLP moves the opposite way
        # from the other workloads in the Figure 7 sweep.
        self.recent_files = RecentPool(2500)
        self.values = ValueSites(repeat_prob=self.value_repeat)
        self.branches = BranchSites(predictable_fraction=0.9)
        self.context = {
            "hot": self.hot,
            "warm": self.warm,
            "values": self.values,
            "branches": self.branches,
        }
        self.txn_base = 0x0080_0000
        self.burst_base = 0x0081_0100
        self.lookup_base = 0x0082_0200

    # -- motif blocks (fixed PCs) ------------------------------------------

    def _send_burst(self, em, rng):
        """Push one file chunk at the fixed burst block.

        Two kinds of chunk, mirroring a real server's send path:

        * *mbuf chains* (the default): the response is a linked list of
          buffer segments; each segment's header load misses and its
          address comes from the previous header — a dependent chain.
          The segment's extra payload lines are prefetched as soon as
          the header arrives, so each epoch overlaps one header miss
          with the previous segment's payload prefetches.
        * *independent chunks* (``independent_burst_fraction``): a flat
          file-cache copy whose line addresses all come from the on-chip
          descriptor — a fully overlappable cluster, with a software
          prefetch stream covering about half the lines.
        """
        ret = em.call_block(self.burst_base)
        segments = rng.randint(*self.burst_segments)
        independent = rng.random() < self.independent_burst_fraction
        prefetched = rng.random() < self.prefetch_fraction
        em.alu(_BUF, 3, 7)
        head = em.pc
        for k in range(segments):
            em.pc = head
            seg = self.files.next_line(stride_lines=SEGMENT_STRIDE_LINES)
            if independent:
                # Flat copy: the "header" address is on-chip data too.
                em.alu(_BUF, 3, 7)
                em.load(_CHK, seg, src1=_BUF,
                        value=self.values.value(rng, em.pc))
            else:
                em.alu(_CTR, _CTR, 7)
                # Chained: next header address comes from this load.
                em.load(_BUF, seg, src1=_BUF,
                        value=self.values.value(rng, em.pc))
            extra = rng.randint(*self.segment_extra_lines)
            for slot in range(2):
                # Prefetch slots: cover the payload lines ahead of use.
                # Unused slots prefetch hot descriptor lines — a static
                # prefetch instruction always executes.
                em.pc = head + 12 + 4 * slot
                if prefetched and slot < extra:
                    em.prefetch(seg + 64 * (slot + 1), src1=_BUF)
                else:
                    em.prefetch(self.hot.random_addr(rng), src1=2)
            for slot in range(2):
                # Payload copy loads, each consumed immediately (the
                # checksum), so an in-order stall-on-use core stalls at
                # every line while an out-of-order core overlaps them.
                # Short segments copy hot scratch instead.
                em.pc = head + 20 + 8 * slot
                if slot < extra:
                    em.load(_CHK, seg + 64 * (slot + 1), src1=_BUF,
                            value=self.values.value(rng, em.pc))
                else:
                    em.load(_CHK, self.hot.random_addr(rng), src1=2,
                            value=self.values.value(rng, em.pc))
                em.alu(_CHK, _CHK, 1)
            em.pc = head + 36
            em.store(self.warm.random_addr(rng), data_src=_CHK, src1=2)
            em.branch(k + 1 < segments, head, src1=_CTR)
        em.jump(ret)

    def _lookup(self, em, rng):
        """File-cache lookup at the fixed lookup block: warm metadata,
        occasionally reaching a cold descriptor."""
        ret = em.call_block(self.lookup_base)
        em.load(_DESC, self.warm.random_addr(rng), src1=2,
                value=self.values.value(rng, em.pc))
        em.alu(_DESC, _DESC, 1)
        cold = rng.random() < self.cold_lookup_probability
        em.branch(not cold, em.pc + 8, src1=_CTR)
        if cold:
            line = None
            if rng.random() < RECENT_FILE_PROBABILITY:
                line = self.recent_files.sample(rng)
            if line is None:
                line = self.files.next_line(
                    stride_lines=DESCRIPTOR_STRIDE_LINES)
                self.recent_files.insert(line)
            em.load(_DESC, line, src1=_DESC,
                    value=self.values.value(rng, em.pc))
        em.jump(ret)

    # -- transaction driver (fixed script) -----------------------------------

    def emit_transaction(self, em, rng):
        base = self.txn_base
        em.jump(base)

        # Header parsing / connection handling: pure on-chip work.
        calls = rng.randint(*self.calls_per_txn)
        for k in range(calls):
            em.pc = base
            self.code.call(em, rng, self.context)
            em.branch(k + 1 < calls, base, src1=_CTR)  # base+4

        em.pc = base + 8
        self._lookup(em, rng)  # returns to base+12

        send = rng.random() < self.burst_probability
        em.pc = base + 12
        em.branch(not send, base + 20, src1=_CTR)
        if send:
            self._send_burst(em, rng)  # call site base+16, returns base+20
        em.pc = base + 20
        em.alu(_CTR, _CTR, 7)
        # Transaction ends at base+24; the next one jumps from here.
