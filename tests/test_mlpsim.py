"""Targeted semantics tests for the out-of-order MLPsim engine.

Each test constructs a tiny trace that isolates one window-termination
rule or dependence mechanism from Section 3 of the paper.
"""

import pytest

from repro.core.config import MachineConfig
from repro.core.epoch import TriggerKind, epoch_sets
from repro.core.mlpsim import MLPSim, simulate
from repro.core.termination import Inhibitor
from repro.trace.annotate import manual_annotation
from repro.trace.builder import TraceBuilder


def run(annotated, label="64C", record=True, **overrides):
    machine = MachineConfig.named(label, **overrides)
    return MLPSim(machine, record_sets=record).run(annotated)


def chain_trace(levels, spacing=0):
    """A pointer chase: each missing load's address feeds the next."""
    b = TraceBuilder("chain")
    pc = 0x100
    for level in range(levels):
        b.add_load(pc, dst=2, addr=0x8000 + 0x1000 * level, src1=2, value=level)
        pc += 4
        for _ in range(spacing):
            b.add_alu(pc, dst=9, src1=8)
            pc += 4
    return manual_annotation(
        b.build(), dmiss_at=[i * (spacing + 1) for i in range(levels)]
    )


def burst_trace(misses, spacing=0):
    """Independent missing loads, optionally separated by filler ALUs."""
    b = TraceBuilder("burst")
    pc = 0x100
    dmiss_at = []
    for m in range(misses):
        dmiss_at.append(len(b._cols["op"]))
        b.add_load(pc, dst=8 + (m % 4), addr=0x8000 + 0x1000 * m, src1=1)
        pc += 4
        for _ in range(spacing):
            b.add_alu(pc, dst=20, src1=21)
            pc += 4
    return manual_annotation(b.build(), dmiss_at=dmiss_at)


class TestDependences:
    def test_chain_serialises_completely(self):
        result = run(chain_trace(5))
        assert result.epochs == 5
        assert result.mlp == pytest.approx(1.0)

    def test_independent_burst_overlaps_completely(self):
        result = run(burst_trace(6))
        assert result.epochs == 1
        assert result.mlp == pytest.approx(6.0)

    def test_store_forwarding_creates_memory_dependence(self):
        # load(miss) -> store of its value -> load of the stored address
        # (a cache hit): the final load cannot execute before the store.
        b = TraceBuilder("fwd")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss
        b.add_store(0x104, addr=0x9000, data_src=2, src1=1)
        b.add_load(0x108, dst=3, addr=0x9000, src1=1)  # hit, forwarded
        b.add_load(0x10C, dst=4, addr=0xA000, src1=3)  # miss, dep via memory
        ann = manual_annotation(b.build(), dmiss_at=[0, 3])
        result = run(ann)
        assert epoch_sets(result.epoch_records) == [[0], [1, 2, 3]]
        assert result.mlp == pytest.approx(1.0)

    def test_memory_dependence_is_address_precise(self):
        # A store to a *different* address does not delay the load.
        b = TraceBuilder("nofwd")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss
        b.add_store(0x104, addr=0x9000, data_src=2, src1=1)
        b.add_load(0x108, dst=3, addr=0x9040, src1=1)  # different addr
        ann = manual_annotation(b.build(), dmiss_at=[0, 2])
        result = run(ann)  # config C: load speculates past the store
        assert result.epochs == 1
        assert result.accesses == 2

    def test_zero_register_never_creates_dependence(self):
        b = TraceBuilder("zero")
        b.add_load(0x100, dst=0, addr=0x8000, src1=1)  # writes %g0
        b.add_load(0x104, dst=3, addr=0x9000, src1=0)  # reads %g0
        ann = manual_annotation(b.build(), dmiss_at=[0, 1])
        result = run(ann)
        assert result.epochs == 1  # both overlap


class TestWindowLimits:
    def test_rob_bounds_the_epoch(self):
        # 8 independent misses, 3 apart; ROB 8 reaches only the first 3.
        ann = burst_trace(8, spacing=2)
        small = run(ann, "8C", fetch_buffer=0)
        big = run(ann, "64C")
        assert small.mlp < big.mlp
        assert big.mlp == pytest.approx(8.0)

    def test_issue_window_occupancy_counts_unissued_only(self):
        # A missing load issues and leaves the issue window, so a tiny
        # IW with a big ROB still exposes distant misses (decoupling).
        b = TraceBuilder("decouple")
        pc = 0x100
        dmiss = []
        for m in range(4):
            dmiss.append(len(b._cols["op"]))
            b.add_load(pc, dst=8, addr=0x8000 + 0x1000 * m, src1=1)
            pc += 4
            for _ in range(7):
                b.add_alu(pc, dst=20, src1=1)  # independent: all execute
                pc += 4
        ann = manual_annotation(b.build(), dmiss_at=dmiss)
        result = run(ann, "4C", rob=64, fetch_buffer=0)
        assert result.mlp == pytest.approx(4.0)

    def test_deferred_instructions_fill_the_issue_window(self):
        # Instructions dependent on the miss stay in the IW and stall
        # dispatch once it is full.
        b = TraceBuilder("iwfull")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss
        pc = 0x104
        for _k in range(6):
            b.add_alu(pc, dst=3, src1=2)  # all depend on the miss
            pc += 4
        b.add_load(pc, dst=9, addr=0x9000, src1=1)  # independent miss
        ann = manual_annotation(b.build(), dmiss_at=[0, 7])
        blocked = run(ann, "4C", rob=64, fetch_buffer=0)
        assert blocked.epochs == 2  # IW filled by the four deferred ALUs
        free = run(ann, "16C", rob=64, fetch_buffer=0)
        assert free.epochs == 1

    def test_fetch_buffer_catches_imiss_past_the_window(self):
        # The window fills at the ROB limit, but the fetch buffer keeps
        # fetching and finds an instruction miss to overlap.
        b = TraceBuilder("fbuf")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # trigger
        pc = 0x104
        for _ in range(4):
            b.add_alu(pc, dst=3, src1=2)
            pc += 4
        b.add_alu(pc, dst=9, src1=1)  # this one fetch-misses
        ann = manual_annotation(b.build(), dmiss_at=[0], imiss_at=[5])
        with_buffer = run(ann, "4C", fetch_buffer=8)
        assert with_buffer.epoch_records[0].accesses == 2
        without = run(ann, "4C", fetch_buffer=0)
        assert without.epoch_records[0].accesses == 1

    def test_maxwin_inhibitor_reported(self):
        ann = burst_trace(8, spacing=2)
        result = run(ann, "8C", fetch_buffer=0)
        assert result.epoch_records[0].inhibitor == Inhibitor.MAXWIN


class TestSerializing:
    def test_cas_blocks_overlap(self):
        b = TraceBuilder("cas")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss
        b.add_cas(0x104, dst=3, addr=0x1000, src1=1, data_src=4)
        b.add_load(0x108, dst=5, addr=0x9000, src1=1)  # miss
        ann = manual_annotation(b.build(), dmiss_at=[0, 2])
        serialized = run(ann, "64D")
        assert serialized.epochs == 2
        assert serialized.epoch_records[0].inhibitor == Inhibitor.SERIALIZE
        relaxed = run(ann, "64E")
        assert relaxed.epochs == 1

    def test_serializing_is_free_with_nothing_outstanding(self):
        b = TraceBuilder("free-cas")
        b.add_cas(0x100, dst=3, addr=0x1000, src1=1, data_src=4)
        b.add_membar(0x104)
        b.add_load(0x108, dst=5, addr=0x9000, src1=1)  # miss
        b.add_load(0x10C, dst=6, addr=0xA000, src1=1)  # miss
        ann = manual_annotation(b.build(), dmiss_at=[2, 3])
        result = run(ann, "64C")
        assert result.epochs == 1
        assert result.mlp == pytest.approx(2.0)

    def test_missing_cas_forms_its_own_epoch(self):
        b = TraceBuilder("cas-miss")
        b.add_cas(0x100, dst=3, addr=0x8000, src1=1, data_src=4)
        b.add_load(0x104, dst=5, addr=0x9000, src1=1)  # independent miss
        ann = manual_annotation(b.build(), dmiss_at=[0, 1])
        result = run(ann, "64C")
        assert result.epochs == 2
        assert result.epoch_records[0].inhibitor == Inhibitor.SERIALIZE
        # Config E lets the atomic behave like a load: full overlap.
        relaxed = run(ann, "64E")
        assert relaxed.epochs == 1

    def test_deferred_cas_executes_after_drain(self):
        b = TraceBuilder("cas-defer")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss
        b.add_cas(0x104, dst=3, addr=0x8100, src1=1, data_src=2)
        ann = manual_annotation(b.build(), dmiss_at=[0, 1])
        result = run(ann, "64C")
        # Epoch 1: the load; epoch 2: the (missing) CAS.
        assert result.epochs == 2
        assert result.accesses == 2


class TestBranches:
    def test_resolvable_misprediction_costs_nothing(self):
        b = TraceBuilder("cheap-mispredict")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss
        b.add_branch(0x104, taken=True, target=0x200, src1=1)  # on-chip cond
        b.add_load(0x200, dst=3, addr=0x9000, src1=1)  # miss
        ann = manual_annotation(b.build(), dmiss_at=[0, 2], mispred_at=[1])
        result = run(ann, "64C")
        assert result.epochs == 1  # branch resolves on-chip, no break

    def test_unresolvable_misprediction_terminates(self):
        b = TraceBuilder("hard-mispredict")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss
        b.add_branch(0x104, taken=True, target=0x200, src1=2)  # dep on miss
        b.add_load(0x200, dst=3, addr=0x9000, src1=1)  # miss
        ann = manual_annotation(b.build(), dmiss_at=[0, 2], mispred_at=[1])
        result = run(ann, "64C")
        assert result.epochs == 2
        assert result.epoch_records[0].inhibitor == Inhibitor.MISPRED_BR

    def test_in_order_branch_blocked_behind_deferred_branch(self):
        # A correctly predicted branch dependent on the miss defers; the
        # younger mispredicted branch cannot issue in order, so it is
        # unresolvable even though its own inputs are ready.
        b = TraceBuilder("blocked-branch")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss
        b.add_branch(0x104, taken=False, target=0x900, src1=2)  # deferred
        b.add_branch(0x108, taken=False, target=0x800, src1=1)  # mispredicted
        b.add_load(0x10C, dst=3, addr=0x9000, src1=1)  # miss
        ann = manual_annotation(b.build(), dmiss_at=[0, 3], mispred_at=[2])
        in_order = run(ann, "64C")
        assert in_order.epochs == 2
        out_of_order = run(ann, "64D")
        assert out_of_order.epochs == 1


class TestPrefetchesAndImiss:
    def test_useful_prefetch_counts(self):
        b = TraceBuilder("pf")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss
        b.add_prefetch(0x104, addr=0x9000, src1=1)
        ann = manual_annotation(b.build(), dmiss_at=[0], pmiss_at=[1])
        result = run(ann)
        assert result.accesses == 2
        assert result.prefetch_accesses == 1

    def test_useless_prefetch_does_not_count(self):
        b = TraceBuilder("useless-pf")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)
        b.add_prefetch(0x104, addr=0x9000, src1=1)
        ann = manual_annotation(
            b.build(), dmiss_at=[0], pmiss_at=[1], useless_prefetches=[1]
        )
        result = run(ann)
        assert result.accesses == 1
        assert result.prefetch_accesses == 0

    def test_prefetch_can_trigger_an_epoch(self):
        b = TraceBuilder("pf-trigger")
        b.add_prefetch(0x100, addr=0x9000, src1=1)
        b.add_load(0x104, dst=2, addr=0x8000, src1=1)
        ann = manual_annotation(b.build(), dmiss_at=[1], pmiss_at=[0])
        result = run(ann)
        assert result.epoch_records[0].trigger_kind == TriggerKind.PMISS
        assert result.epoch_records[0].accesses == 2

    def test_imiss_start_epoch(self):
        b = TraceBuilder("imiss-start")
        b.add_alu(0x100, dst=2, src1=1)
        b.add_load(0x104, dst=3, addr=0x8000, src1=1)
        ann = manual_annotation(b.build(), dmiss_at=[1], imiss_at=[0])
        result = run(ann)
        assert result.epochs == 2
        assert result.epoch_records[0].inhibitor == Inhibitor.IMISS_START
        assert result.epoch_records[0].trigger_kind == TriggerKind.IMISS

    def test_perfect_ifetch_removes_imisses(self):
        b = TraceBuilder("perfi")
        b.add_alu(0x100, dst=2, src1=1)
        b.add_load(0x104, dst=3, addr=0x8000, src1=1)
        ann = manual_annotation(b.build(), dmiss_at=[1], imiss_at=[0])
        result = run(ann, "64C", perfect_ifetch=True)
        assert result.epochs == 1
        assert result.imiss_accesses == 0


class TestValuePrediction:
    def _vp_chain(self):
        b = TraceBuilder("vp")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss, predicted
        b.add_load(0x104, dst=3, addr=0x9000, src1=2)  # dependent miss
        return b.build()

    def test_correct_prediction_overlaps_dependent_miss(self):
        ann = manual_annotation(
            self._vp_chain(), dmiss_at=[0, 1], vp_correct_at=[0]
        )
        base = run(ann, "64C")
        assert base.epochs == 2
        vp = run(ann, "64C", value_prediction=True)
        assert vp.epochs == 1

    def test_wrong_prediction_changes_nothing(self):
        ann = manual_annotation(self._vp_chain(), dmiss_at=[0, 1])
        vp = run(ann, "64C", value_prediction=True)
        assert vp.epochs == 2

    def test_perfect_value_prediction(self):
        ann = manual_annotation(self._vp_chain(), dmiss_at=[0, 1])
        result = run(ann, "64C", perfect_value=True)
        assert result.epochs == 1

    def test_predicted_value_does_not_resolve_branches(self):
        # The branch consumes a correctly predicted value, but recovery
        # needs the validated data: the window still terminates.
        b = TraceBuilder("vp-branch")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss, predicted
        b.add_branch(0x104, taken=True, target=0x200, src1=2)  # mispredicted
        b.add_load(0x200, dst=3, addr=0x9000, src1=1)  # miss
        ann = manual_annotation(
            b.build(), dmiss_at=[0, 2], mispred_at=[1], vp_correct_at=[0]
        )
        result = run(ann, "64C", value_prediction=True)
        assert result.epochs == 2
        assert result.epoch_records[0].inhibitor == Inhibitor.MISPRED_BR


class TestAccounting:
    def test_every_event_counted_exactly_once(self, database_annotated):
        import numpy as np

        ann = database_annotated
        result = simulate(ann, MachineConfig.named("64C"))
        start, stop = ann.measured_region()
        expected = (
            int(np.count_nonzero(ann.dmiss[start:stop]))
            + int(np.count_nonzero(ann.imiss[start:stop]))
            + int(np.count_nonzero(ann.pfuseful[start:stop]))
        )
        assert result.accesses == expected

    def test_mlp_equals_accesses_over_epochs(self, specweb_annotated):
        result = simulate(specweb_annotated, MachineConfig.named("64C"))
        assert result.mlp == pytest.approx(result.accesses / result.epochs)

    def test_region_bounds_validated(self, database_annotated):
        with pytest.raises(ValueError):
            simulate(
                database_annotated,
                MachineConfig(),
                start=10,
                stop=len(database_annotated.trace) + 5,
            )

    def test_deterministic(self, specjbb_annotated):
        machine = MachineConfig.named("64C")
        a = simulate(specjbb_annotated, machine)
        b = simulate(specjbb_annotated, machine)
        assert a.mlp == b.mlp
        assert a.epochs == b.epochs
        assert a.inhibitors.as_dict() == b.inhibitors.as_dict()


class TestFetchRunOnParity:
    """A dispatch-side stop must allow fetch-buffer run-on regardless of
    whether it is reached from the deferred list (phase 1) or from the
    fetch stream (phase 2).

    Regression test: the phase-1 path used to skip the run-on, so a
    serializing drain hit while draining deferred instructions could not
    absorb a following I-fetch miss into the current epoch — perfect
    branch prediction (which reshuffles where stops are encountered)
    could then *reduce* MLP, violating the engine's monotonicity
    invariant.
    """

    def test_serialize_stop_from_deferred_list_allows_runon(self):
        b = TraceBuilder("runon-parity")
        b.add_load(0x100, dst=1, addr=0x10000, src1=2)  # i0: miss
        b.add_membar(0x104)                             # i1: drains behind i0
        b.add_load(0x108, dst=3, addr=0x20000, src1=2)  # i2: miss
        b.add_cas(0x10C, dst=4, addr=0x30000, src1=2, data_src=3)  # i3
        b.add_alu(0x110, dst=5, src1=4)                 # i4
        b.add_alu(0x114, dst=6, src1=5)                 # i5: I-fetch miss
        ann = manual_annotation(b.build(), dmiss_at=[0, 2], imiss_at=[5])
        # Epoch 1 buffers i2..i4 behind the MEMBAR drain (fetch_buffer=3
        # fills before reaching i5).  Epoch 2 replays the deferred list,
        # hits the CAS drain *in the deferred scan*, and the run-on must
        # still absorb the i5 I-miss into this epoch: 2 epochs total.
        result = MLPSim(MachineConfig(fetch_buffer=3)).run(ann)
        assert result.accesses == 3
        assert result.imiss_accesses == 1
        assert result.epochs == 2
        assert result.mlp == pytest.approx(1.5)


class TestRunOnTrigger:
    """An I-miss reached in the fetch-buffer run-on past a store-buffer
    stall can be the epoch's only useful access; it is then the epoch's
    trigger.

    Regression test: the run-on counted the access but never set the
    trigger, so ``record_sets`` runs crashed building the epoch record.
    """

    def test_runon_imiss_alone_triggers_its_epoch(self):
        b = TraceBuilder("runon-trigger")
        pc = 0x100
        for addr in (0x8000, 0x9000):
            b.add_store(pc, addr=addr, data_src=1)  # i0, i1: miss
            pc += 4
        for _ in range(22):
            b.add_alu(pc, dst=9, src1=8)            # i18: I-fetch miss
            pc += 4
        ann = manual_annotation(b.build(), imiss_at=[18], smiss_at=[0, 1])
        recorded = run(ann, "16C", store_buffer=1)
        (epoch,) = recorded.epoch_records
        assert epoch.trigger == 18
        assert epoch.trigger_kind is TriggerKind.IMISS
        assert epoch.inhibitor is Inhibitor.STORE_BUFFER
        counted = run(ann, "16C", record=False, store_buffer=1)
        assert counted.epoch_records is None
        for field in ("accesses", "epochs", "imiss_accesses",
                      "store_accesses", "store_epochs"):
            assert getattr(recorded, field) == getattr(counted, field), field
        assert recorded.inhibitors.as_dict() == counted.inhibitors.as_dict()
