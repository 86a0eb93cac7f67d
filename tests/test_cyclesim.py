"""Tests for the cycle-accurate simulator and its agreement with MLPsim."""

import pytest

from repro.core.config import MachineConfig
from repro.core.mlpsim import simulate
from repro.cyclesim import CycleSimConfig, CycleSimulator, run_cyclesim
from repro.robustness.errors import ConfigError
from repro.trace.annotate import manual_annotation
from repro.trace.builder import TraceBuilder


def config(label="64C", penalty=1000, **overrides):
    return CycleSimConfig.from_machine(
        MachineConfig.named(label), miss_penalty=penalty, **overrides
    )


def alu_block(n=32):
    b = TraceBuilder("alu")
    pc = 0x100
    for k in range(n):
        b.add_alu(pc, dst=2 + (k % 4), src1=1)
        pc += 4
    return manual_annotation(b.build())


class TestTiming:
    def test_alu_throughput_bounded_by_width(self):
        ann = alu_block(64)
        metrics = run_cyclesim(ann, config())
        # 4-wide machine on independent ALUs: CPI near 0.25 plus the
        # pipeline fill; certainly below 1.
        assert metrics.cpi < 1.0
        assert metrics.instructions == 64

    def test_single_miss_costs_roughly_the_penalty(self):
        b = TraceBuilder("one-miss")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)
        b.add_alu(0x104, dst=3, src1=2)  # dependent
        ann = manual_annotation(b.build(), dmiss_at=[0])
        metrics = run_cyclesim(ann, config(penalty=500))
        assert 500 <= metrics.cycles <= 560

    def test_perfect_l2_removes_offchip_time(self):
        b = TraceBuilder("perf")
        for k in range(8):
            b.add_load(0x100 + 4 * k, dst=2, addr=0x8000 + 0x1000 * k, src1=2)
        ann = manual_annotation(b.build(), dmiss_at=list(range(8)))
        real = run_cyclesim(ann, config(penalty=1000))
        perf = run_cyclesim(ann, config(penalty=1000, perfect_l2=True))
        assert perf.cycles < real.cycles / 5
        assert perf.offchip_accesses == 0

    def test_dependent_chain_serialises_in_time(self):
        b = TraceBuilder("chain")
        for k in range(3):
            b.add_load(0x100 + 4 * k, dst=2, addr=0x8000 + 0x1000 * k, src1=2)
        ann = manual_annotation(b.build(), dmiss_at=[0, 1, 2])
        metrics = run_cyclesim(ann, config(penalty=400))
        assert metrics.cycles >= 3 * 400
        assert metrics.mlp == pytest.approx(1.0, abs=0.05)

    def test_independent_misses_overlap_in_time(self):
        b = TraceBuilder("overlap")
        for k in range(4):
            b.add_load(0x100 + 4 * k, dst=2 + k, addr=0x8000 + 0x1000 * k,
                       src1=1)
        ann = manual_annotation(b.build(), dmiss_at=list(range(4)))
        metrics = run_cyclesim(ann, config(penalty=400))
        assert metrics.cycles < 2 * 400
        assert metrics.mlp > 3.5


class TestStructures:
    def test_rob_limits_overlap(self):
        # Misses spaced 16 apart; a 16-entry ROB serialises them.
        b = TraceBuilder("rob")
        pc = 0x100
        dmiss = []
        for m in range(3):
            dmiss.append(len(b._cols["op"]))
            b.add_load(pc, dst=8, addr=0x8000 + 0x1000 * m, src1=1)
            pc += 4
            for _ in range(15):
                b.add_alu(pc, dst=20, src1=1)
                pc += 4
        ann = manual_annotation(b.build(), dmiss_at=dmiss)
        small = run_cyclesim(ann, config("16C", penalty=500))
        big = run_cyclesim(ann, config("64C", penalty=500))
        assert big.mlp > small.mlp + 0.5

    def test_mshr_merges_same_line(self):
        b = TraceBuilder("merge")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)
        b.add_load(0x104, dst=3, addr=0x8008, src1=1)  # same line
        ann = manual_annotation(b.build(), dmiss_at=[0, 1])
        metrics = run_cyclesim(ann, config(penalty=300))
        assert metrics.offchip_accesses == 1
        assert metrics.cycles < 400

    def test_serializing_drain(self):
        b = TraceBuilder("drain")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss
        b.add_cas(0x104, dst=3, addr=0x1000, src1=1, data_src=4)
        b.add_load(0x108, dst=5, addr=0x9000, src1=1)  # miss
        ann = manual_annotation(b.build(), dmiss_at=[0, 2])
        metrics = run_cyclesim(ann, config("64C", penalty=400))
        # The CAS forces the two misses into disjoint epochs in time.
        assert metrics.cycles >= 800
        assert metrics.mlp == pytest.approx(1.0, abs=0.05)

    def test_mispredicted_dependent_branch_blocks_fetch(self):
        b = TraceBuilder("mispred")
        b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # miss
        b.add_branch(0x104, taken=True, target=0x200, src1=2)
        b.add_load(0x200, dst=3, addr=0x9000, src1=1)  # miss
        ann = manual_annotation(b.build(), dmiss_at=[0, 2], mispred_at=[1])
        metrics = run_cyclesim(ann, config(penalty=400))
        assert metrics.cycles >= 800


class TestPolicies:
    def _example4(self):
        b = TraceBuilder("ex4")
        b.add_load(0x100, dst=2, addr=0x8008, src1=1)
        b.add_load(0x104, dst=3, addr=0x9000, src1=2)
        b.add_load(0x108, dst=4, addr=0x8108, src1=1)
        b.add_store(0x10C, addr=0x9000, data_src=5, src1=3)
        b.add_load(0x110, dst=6, addr=0x8388, src1=1)
        return manual_annotation(b.build(), dmiss_at=[0, 1, 2, 4])

    def test_policy_ordering_matches_paper_example(self):
        mlps = {
            c: run_cyclesim(self._example4(), config(f"64{c}", 1000)).mlp
            for c in "ABC"
        }
        # A and B tie on this example (both split it into epochs of
        # 2+1+1 accesses); C overlaps i1/i3/i5 and clearly wins.
        assert mlps["A"] <= mlps["B"] < mlps["C"]

    def test_runahead_rejected(self):
        with pytest.raises(ValueError):
            CycleSimConfig.from_machine(MachineConfig.runahead_machine())

    def test_validation(self):
        with pytest.raises(ValueError):
            CycleSimConfig(miss_penalty=5)  # below L2 latency
        with pytest.raises(ValueError):
            CycleSimConfig(issue_window=64, rob=32)

    @pytest.mark.parametrize("field", [
        "frontend_depth", "alu_latency", "branch_latency", "l1_latency",
        "l2_latency", "miss_penalty", "redirect_penalty",
    ])
    def test_cycle_counts_past_the_horizon_are_refused(self, field):
        """A cycle count at or past the frozen reference's horizon
        (2**60, its "never"), or below 0, is refused by name, not
        simulated into a deadlock report or a shorter run."""
        from repro.cyclesim.simulator_reference import _NEVER

        for value in (_NEVER, 2**64 + 200, -1, -50):
            with pytest.raises(ConfigError) as raised:
                CycleSimConfig(**{field: value})
            assert raised.value.field == field

    @pytest.mark.parametrize("field", [
        "fetch_width", "dispatch_width", "issue_width", "commit_width",
        "rob", "issue_window", "fetch_buffer",
    ])
    def test_widths_and_sizes_below_one_are_refused(self, field):
        """A width or a structure size below 1 is refused by name as a
        config error, not reported as a deadlocked simulation."""
        for value in (0, -1):
            with pytest.raises(ConfigError) as raised:
                CycleSimConfig(**{field: value})
            assert raised.value.field == field


class TestEventSkipping:
    """The event-skip fast path must be invisible: cycle-by-cycle
    ticking and stall-skipping give byte-identical results."""

    @pytest.mark.parametrize(
        "label,penalty", [("32C", 500), ("64A", 300), ("16B", 400)]
    )
    def test_skip_equals_tick(self, label, penalty):
        from repro.trace.annotate import annotate
        from repro.workloads import generate_trace

        ann = annotate(generate_trace("specjbb2000", 9000))
        machine = MachineConfig.named(label)
        skip = run_cyclesim(
            ann, CycleSimConfig.from_machine(machine, miss_penalty=penalty)
        )
        tick = run_cyclesim(
            ann,
            CycleSimConfig.from_machine(
                machine, miss_penalty=penalty, event_skip=False
            ),
        )
        assert skip.cycles == tick.cycles
        assert skip.offchip_accesses == tick.offchip_accesses
        assert skip.outstanding_integral == tick.outstanding_integral
        assert skip.nonzero_cycles == tick.nonzero_cycles


class TestAgreementWithMLPsim:
    """The Table 3 property: cyclesim MLP approaches MLPsim MLP as the
    off-chip latency grows."""

    @pytest.mark.parametrize("letter", ["A", "B", "C"])
    def test_convergence_on_database(self, database_annotated, letter):
        machine = MachineConfig.named(f"64{letter}")
        mlpsim = simulate(database_annotated, machine).mlp
        gaps = []
        for penalty in (200, 1000):
            cyc = run_cyclesim(
                database_annotated,
                CycleSimConfig.from_machine(machine, miss_penalty=penalty),
            ).mlp
            gaps.append(abs(cyc - mlpsim) / mlpsim)
        assert gaps[1] <= gaps[0] + 1e-6  # longer latency agrees better
        assert gaps[1] < 0.06

    def test_cpi_sanity_on_workload(self, specjbb_annotated):
        sim = CycleSimulator(config("64C", penalty=1000))
        metrics = sim.run(specjbb_annotated)
        assert metrics.cpi > 1.0
        assert metrics.ipc == pytest.approx(1.0 / metrics.cpi)
        assert 0 < metrics.miss_rate_per_100 < 5
        assert "CPI" in metrics.summary()


class TestCPIStack:
    def test_stack_sums_to_cpi(self, database_annotated):
        metrics = run_cyclesim(
            database_annotated, config("64C", penalty=1000)
        )
        stack = metrics.cpi_stack()
        assert sum(stack.values()) == pytest.approx(metrics.cpi)
        assert sum(metrics.stall_cycles.values()) == metrics.cycles

    def test_memory_dominates_memory_bound_workload(self, database_annotated):
        metrics = run_cyclesim(
            database_annotated, config("64C", penalty=1000)
        )
        stack = metrics.cpi_stack()
        assert stack["memory"] == max(stack.values())

    def test_perfect_l2_shrinks_memory_share(self, database_annotated):
        real = run_cyclesim(database_annotated, config("64C", penalty=1000))
        perf = run_cyclesim(
            database_annotated, config("64C", penalty=1000, perfect_l2=True)
        )
        assert perf.cpi_stack()["memory"] < real.cpi_stack()["memory"] / 5

    def test_drain_appears_with_serializing_work(self, specjbb_annotated):
        metrics = run_cyclesim(
            specjbb_annotated, config("64C", penalty=1000)
        )
        assert metrics.cpi_stack()["drain"] > 0

    def test_stack_identical_with_and_without_skipping(self):
        from repro.trace.annotate import annotate
        from repro.workloads import generate_trace

        ann = annotate(generate_trace("specweb99", 9000))
        skip = run_cyclesim(ann, config("32C", penalty=400))
        tick = run_cyclesim(
            ann, config("32C", penalty=400, event_skip=False)
        )
        assert dict(skip.stall_cycles) == dict(tick.stall_cycles)

    def test_format(self, specweb_annotated):
        metrics = run_cyclesim(specweb_annotated, config("64C", penalty=200))
        assert "CPI" in metrics.format_cpi_stack()
