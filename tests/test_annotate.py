"""Tests for the annotation pipeline (trace -> MLPsim events)."""

import numpy as np

from repro.memory.hierarchy import HierarchyConfig
from repro.trace.annotate import AnnotationConfig, annotate, manual_annotation
from repro.trace.builder import TraceBuilder


def cold_loop_trace(lines=64, repeats=3, region=0x5000_0000):
    """Touch `lines` distinct lines `repeats` times from a fixed loop PC."""
    b = TraceBuilder("cold-loop")
    for _r in range(repeats):
        for k in range(lines):
            b.add_load(0x100, dst=2, addr=region + 64 * k, src1=1, value=k)
    return b.build()


class TestDataAnnotations:
    def test_first_touch_misses_then_hits(self):
        ann = annotate(cold_loop_trace(lines=32, repeats=2))
        assert int(ann.dmiss[:32].sum()) == 32
        assert int(ann.dmiss[32:].sum()) == 0

    def test_big_region_always_misses(self):
        # A working set far beyond the L2 never becomes resident.
        b = TraceBuilder("stream")
        for k in range(200):
            b.add_load(0x100, dst=2, addr=0x5000_0000 + 64 * 997 * k, src1=1)
        ann = annotate(b.build())
        assert int(np.count_nonzero(ann.dmiss)) == 200

    def test_store_misses_allocate_but_do_not_count(self):
        b = TraceBuilder("store")
        b.add_store(0x100, addr=0x5000_0000, data_src=2, src1=1)
        b.add_load(0x104, dst=3, addr=0x5000_0000, src1=1)
        ann = annotate(b.build())
        assert not ann.dmiss.any()  # store allocated the line
        # The only off-chip traffic left is the code's own fetch miss.
        assert ann.num_offchip(start=0) == int(ann.imiss.sum())

    def test_l2_size_changes_events(self):
        trace = cold_loop_trace(lines=3000, repeats=3)  # ~192KB
        small = annotate(
            trace,
            AnnotationConfig(
                hierarchy=HierarchyConfig().with_l2_size(128 * 1024)
            ),
        )
        big = annotate(trace)
        assert small.dmiss.sum() > big.dmiss.sum()


class TestInstructionAnnotations:
    def test_cold_code_fetch_misses(self):
        b = TraceBuilder("coldcode")
        for k in range(64):
            b.add_alu(0x0100_0000 + 4 * k, dst=2, src1=1)
        ann = annotate(b.build())
        # One miss per 64B line = every 16 instructions.
        assert int(np.count_nonzero(ann.imiss)) == 4
        assert ann.imiss[0] and ann.imiss[16]

    def test_warm_code_does_not_miss(self):
        b = TraceBuilder("warmcode")
        for _ in range(3):
            for k in range(16):
                b.add_alu(0x0100_0000 + 4 * k, dst=2, src1=1)
        ann = annotate(b.build())
        assert int(np.count_nonzero(ann.imiss)) == 1  # first touch only


class TestBranchAnnotations:
    def test_biased_branch_learned(self):
        b = TraceBuilder("biased")
        for _ in range(100):
            b.add_branch(0x100, taken=True, target=0x200, src1=2)
            b.add_alu(0x200, dst=2, src1=1)
        ann = annotate(b.build())
        branch_positions = np.nonzero(b.build().branch_mask())[0]
        late = ann.mispred[branch_positions[50:]]
        assert not late.any()

    def test_unconditional_jumps_never_mispredict(self):
        b = TraceBuilder("jumps")
        import random

        rng = random.Random(7)
        for _ in range(50):
            b.add_branch(0x100, taken=True, target=rng.randrange(1 << 20) * 4)
            b.add_alu(0x104, dst=2, src1=1)
        ann = annotate(b.build())
        assert not ann.mispred.any()


class TestPrefetchAnnotations:
    def test_useful_prefetch_detected(self):
        b = TraceBuilder("pf")
        b.add_prefetch(0x100, addr=0x5000_0000, src1=1)
        b.add_load(0x104, dst=2, addr=0x5000_0000, src1=1)
        ann = annotate(b.build())
        assert ann.pmiss[0] and ann.pfuseful[0]
        assert not ann.dmiss[1]  # the load hits on the prefetched line

    def test_unused_prefetch_is_useless(self):
        b = TraceBuilder("pf-useless")
        b.add_prefetch(0x100, addr=0x5000_0000, src1=1)
        b.add_load(0x104, dst=2, addr=0x6000_0000, src1=1)
        ann = annotate(b.build())
        assert ann.pmiss[0] and not ann.pfuseful[0]

    def test_prefetch_into_cache_is_not_pmiss(self):
        b = TraceBuilder("pf-hit")
        b.add_load(0x100, dst=2, addr=0x5000_0000, src1=1)
        b.add_prefetch(0x104, addr=0x5000_0000, src1=1)
        ann = annotate(b.build())
        assert not ann.pmiss[1]


class TestValueAnnotations:
    def test_vp_outcomes_only_on_missing_loads(self):
        ann = annotate(cold_loop_trace(lines=8, repeats=3))
        assert (ann.vp_outcome[ann.dmiss] >= 0).all()
        assert (ann.vp_outcome[~np.asarray(ann.dmiss)] == -1).all()

    def test_constant_values_predicted(self):
        b = TraceBuilder("vp")
        # Same site, always-missing loads, constant value.
        for k in range(6):
            b.add_load(0x100, dst=2, addr=0x5000_0000 + 64 * 1031 * k,
                       src1=1, value=7)
        ann = annotate(b.build())
        assert (ann.vp_outcome[2:] == 0).all()  # correct after the ramp


class TestRegionsAndHelpers:
    def test_measure_start_fraction(self):
        trace = cold_loop_trace(lines=30, repeats=2)
        ann = annotate(trace, AnnotationConfig(warmup_fraction=0.5))
        assert ann.measure_start == len(trace) // 2
        assert ann.measured_region() == (len(trace) // 2, len(trace))

    def test_miss_rate_helpers(self):
        ann = annotate(cold_loop_trace(lines=16, repeats=1))
        ann.measure_start = 0
        assert ann.miss_rate_per_100() > 0
        assert ann.l2_load_miss_rate_per_100() > 0

    def test_manual_annotation_validation_free_layout(self):
        b = TraceBuilder("manual")
        b.add_load(0x100, dst=2, addr=0x40, src1=1)
        b.add_branch(0x104, taken=False, target=0x200, src1=2)
        ann = manual_annotation(
            b.build(), dmiss_at=[0], mispred_at=[1], vp_correct_at=[0]
        )
        assert ann.dmiss[0] and ann.mispred[1]
        assert ann.vp_outcome[0] == 0
        assert ann.num_offchip() == 1
