"""Semantics tests for the in-order machines (paper Section 3.3 / Table 5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.core.inorder import (
    InOrderPolicy,
    simulate_inorder,
    simulate_stall_on_miss,
    simulate_stall_on_use,
)
from repro.core.termination import Inhibitor
from repro.trace.annotate import annotate, manual_annotation
from repro.trace.builder import TraceBuilder
from repro.workloads import generate_trace
from tests.inorder_oracle import simulate_inorder_oracle


def two_independent_misses():
    b = TraceBuilder("two")
    b.add_load(0x100, dst=2, addr=0x8000, src1=1)
    b.add_load(0x104, dst=3, addr=0x9000, src1=1)
    b.add_alu(0x108, dst=4, src1=2)  # first use of miss data
    return manual_annotation(b.build(), dmiss_at=[0, 1])


class TestStallOnMiss:
    def test_misses_never_overlap(self):
        result = simulate_stall_on_miss(two_independent_misses())
        assert result.epochs == 2
        assert result.mlp == pytest.approx(1.0)

    def test_prefetch_overlaps_the_following_miss(self):
        b = TraceBuilder("som-pf")
        b.add_prefetch(0x100, addr=0x9000, src1=1)
        b.add_load(0x104, dst=2, addr=0x8000, src1=1)
        ann = manual_annotation(b.build(), dmiss_at=[1], pmiss_at=[0])
        result = simulate_stall_on_miss(ann)
        assert result.epochs == 1
        assert result.mlp == pytest.approx(2.0)

    def test_useless_prefetch_ignored(self):
        b = TraceBuilder("som-useless")
        b.add_prefetch(0x100, addr=0x9000, src1=1)
        b.add_load(0x104, dst=2, addr=0x8000, src1=1)
        ann = manual_annotation(
            b.build(), dmiss_at=[1], pmiss_at=[0], useless_prefetches=[0]
        )
        result = simulate_stall_on_miss(ann)
        assert result.accesses == 1

    def test_following_imiss_overlaps(self):
        # Fetch runs ahead while issue drains at the stall.
        b = TraceBuilder("som-imiss")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # stall here
        b.add_alu(0x104, dst=3, src1=1)  # fetch-misses just behind
        ann = manual_annotation(b.build(), dmiss_at=[0], imiss_at=[1])
        result = simulate_stall_on_miss(ann)
        assert result.epochs == 1
        assert result.accesses == 2

    def test_lookahead_stops_at_mispredicted_branch(self):
        b = TraceBuilder("som-wrongpath")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)
        b.add_branch(0x104, taken=True, target=0x200, src1=2)  # mispredicted
        b.add_alu(0x200, dst=3, src1=1)  # fetch-misses, but wrong path
        ann = manual_annotation(
            b.build(), dmiss_at=[0], imiss_at=[2], mispred_at=[1]
        )
        result = simulate_stall_on_miss(ann)
        assert result.epochs == 2  # the imiss is its own epoch

    def test_stale_prefetch_is_its_own_epoch(self):
        b = TraceBuilder("som-stale")
        b.add_prefetch(0x100, addr=0x9000, src1=1)
        pc = 0x104
        for _ in range(50):
            b.add_alu(pc, dst=20, src1=1)
            pc += 4
        b.add_load(pc, dst=2, addr=0x8000, src1=1)
        ann = manual_annotation(b.build(), dmiss_at=[51], pmiss_at=[0])
        result = simulate_inorder(
            ann, InOrderPolicy.STALL_ON_MISS, overlap_window=20
        )
        assert result.epochs == 2


class TestStallOnUse:
    def test_independent_misses_overlap_until_first_use(self):
        result = simulate_stall_on_use(two_independent_misses())
        assert result.epochs == 1
        assert result.mlp == pytest.approx(2.0)

    def test_use_terminates_the_window(self):
        b = TraceBuilder("sou-use")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)
        b.add_alu(0x104, dst=4, src1=2)  # immediate use: stall
        b.add_load(0x108, dst=3, addr=0x9000, src1=1)
        ann = manual_annotation(b.build(), dmiss_at=[0, 2])
        result = simulate_stall_on_use(ann)
        assert result.epochs == 2
        assert result.epoch_records is None  # record_sets defaults off
        detailed = simulate_stall_on_use(ann, record_sets=True)
        assert detailed.epoch_records[0].inhibitor == Inhibitor.MISSING_LOAD

    def test_store_data_counts_as_use(self):
        b = TraceBuilder("sou-store")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)
        b.add_store(0x104, addr=0x9000, data_src=2, src1=1)  # uses r2
        b.add_load(0x108, dst=3, addr=0xA000, src1=1)
        ann = manual_annotation(b.build(), dmiss_at=[0, 2])
        result = simulate_stall_on_use(ann)
        assert result.epochs == 2

    def test_overwrite_clears_outstanding(self):
        b = TraceBuilder("sou-overwrite")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss into r2
        b.add_alu(0x104, dst=2, src1=1)  # overwrites r2 (no use)
        b.add_alu(0x108, dst=4, src1=2)  # reads the *new* r2
        b.add_load(0x10C, dst=3, addr=0x9000, src1=1)
        ann = manual_annotation(b.build(), dmiss_at=[0, 3])
        result = simulate_stall_on_use(ann)
        assert result.epochs == 1  # never stalls: both misses overlap

    def test_atomic_drains(self):
        b = TraceBuilder("sou-cas")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)
        b.add_cas(0x104, dst=3, addr=0x1000, src1=1, data_src=4)
        b.add_load(0x108, dst=5, addr=0x9000, src1=1)
        ann = manual_annotation(b.build(), dmiss_at=[0, 2])
        result = simulate_stall_on_use(ann, record_sets=True)
        assert result.epochs == 2
        assert result.epoch_records[0].inhibitor == Inhibitor.SERIALIZE

    def test_membar_with_nothing_outstanding_is_free(self):
        b = TraceBuilder("sou-membar")
        b.add_membar(0x100)
        b.add_load(0x104, dst=2, addr=0x8000, src1=1)
        b.add_load(0x108, dst=3, addr=0x9000, src1=1)
        ann = manual_annotation(b.build(), dmiss_at=[1, 2])
        result = simulate_stall_on_use(ann)
        assert result.epochs == 1


class TestOrderings:
    def test_sou_at_least_som_on_workloads(self, all_annotated):
        for ann in all_annotated.values():
            som = simulate_stall_on_miss(ann).mlp
            sou = simulate_stall_on_use(ann).mlp
            assert sou >= som - 1e-9

    def test_in_order_mlp_is_modest(self, all_annotated):
        """Table 5: in-order MLP sits close to 1 (1.00-1.13 paper)."""
        for ann in all_annotated.values():
            som = simulate_stall_on_miss(ann).mlp
            assert 1.0 <= som < 1.3

    def test_event_conservation(self, specweb_annotated):
        import numpy as np

        ann = specweb_annotated
        start, stop = ann.measured_region()
        expected = (
            int(np.count_nonzero(ann.dmiss[start:stop]))
            + int(np.count_nonzero(ann.imiss[start:stop]))
            + int(np.count_nonzero(ann.pfuseful[start:stop]))
        )
        for simulator in (simulate_stall_on_miss, simulate_stall_on_use):
            assert simulator(ann).accesses == expected


PERFECT_FRONT_END = MachineConfig(perfect_ifetch=True, perfect_branch=True)


def assert_matches_oracle(annotated, **kwargs):
    """The engine and the step-by-step oracle return equal results."""
    for policy in InOrderPolicy:
        for record_sets in (False, True):
            got = simulate_inorder(annotated, policy,
                                   record_sets=record_sets, **kwargs)
            want = simulate_inorder_oracle(annotated, policy,
                                           record_sets=record_sets, **kwargs)
            assert got == want, (policy, record_sets, kwargs)


class TestMatchesOracle:
    """The quiet-stretch skip changes no result, ``epoch_records``
    included."""

    @pytest.fixture(scope="class", params=[1234, 7])
    def workload_annotations(self, request):
        return [annotate(generate_trace(name, 20_000, seed=request.param))
                for name in ("database", "specjbb2000", "specweb99")]

    @pytest.mark.parametrize("machine", [None, PERFECT_FRONT_END],
                             ids=["default", "perfect-front-end"])
    def test_workloads(self, workload_annotations, machine):
        for annotated in workload_annotations:
            assert_matches_oracle(annotated, machine=machine)

    def test_explicit_regions(self, workload_annotations):
        for annotated in workload_annotations:
            n = len(annotated)
            for start, stop in ((0, n), (0, n // 3), (n // 2, n // 2 + 777),
                                (n - 5, n), (n // 4, n // 4)):
                assert_matches_oracle(annotated, start=start, stop=stop)

    def test_short_windows(self, workload_annotations):
        """A short prefetch overlap and fetch buffer make stale
        prefetch groups and lookahead cut-offs frequent."""
        for annotated in workload_annotations:
            assert_matches_oracle(annotated, overlap_window=7,
                                  fetch_buffer=2)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_manual_annotations(self, data):
        annotated, kwargs = data.draw(random_inorder_case())
        assert_matches_oracle(annotated, **kwargs)


_OPS = ("alu", "nop", "load", "store", "branch", "prefetch", "membar",
        "cas", "ldstub")


@st.composite
def random_inorder_case(draw):
    """A short trace with events placed anywhere, plus simulator knobs.

    Manual annotations may mark any instruction, so data misses also
    land on non-loads and prefetches may be useless.
    """
    n = draw(st.integers(1, 60))
    regs = st.integers(0, 8)
    b = TraceBuilder("random-inorder")
    pc = 0x1000
    for _ in range(n):
        kind = draw(st.sampled_from(_OPS))
        dst, src, addr = draw(regs), draw(regs), 64 * draw(st.integers(0, 7))
        if kind == "alu":
            b.add_alu(pc, dst=dst, src1=src, src2=draw(regs))
        elif kind == "nop":
            b.add_nop(pc)
        elif kind == "load":
            b.add_load(pc, dst=dst, addr=addr, src1=src)
        elif kind == "store":
            b.add_store(pc, addr=addr, data_src=dst, src1=src)
        elif kind == "branch":
            b.add_branch(pc, taken=draw(st.booleans()), target=pc + 4,
                         src1=src)
        elif kind == "prefetch":
            b.add_prefetch(pc, addr=addr, src1=src)
        elif kind == "membar":
            b.add_membar(pc)
        elif kind == "cas":
            b.add_cas(pc, dst=dst, addr=addr, src1=src, data_src=draw(regs))
        else:
            b.add_ldstub(pc, dst=dst, addr=addr, src1=src)
        pc += 4
    positions = st.lists(st.integers(0, n - 1), max_size=n)
    pmiss_at = draw(positions)
    annotated = manual_annotation(
        b.build(),
        dmiss_at=draw(positions),
        imiss_at=draw(positions),
        mispred_at=draw(positions),
        pmiss_at=pmiss_at,
        useless_prefetches=draw(st.lists(st.sampled_from(pmiss_at))
                                if pmiss_at else st.just([])),
    )
    start = draw(st.integers(0, n))
    kwargs = {
        "start": start,
        "stop": draw(st.integers(start, n)),
        "machine": draw(st.sampled_from([None, PERFECT_FRONT_END])),
        "overlap_window": draw(st.integers(0, 12)),
        "fetch_buffer": draw(st.integers(0, 4)),
    }
    return annotated, kwargs
