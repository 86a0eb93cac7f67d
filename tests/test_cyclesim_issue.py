"""The cyclesim kernel's issue stage against the frozen reference.

The kernel issues in one oldest-first pass over the issue window: it
compacts the window as it scans, holds an in-order memop (branch) back
exactly when an older one stayed behind earlier in the pass, and
re-reads only the producer an entry last found unissued.  Each test
drives one corner of that stage on the kernel and on
``simulator_reference.run_cyclesim`` and wants every metric equal.
"""

import dataclasses

import pytest

from repro.core.config import (
    BranchPolicy,
    IssueConfig,
    LoadPolicy,
    MachineConfig,
    SerializePolicy,
)
from repro.cyclesim import CycleSimConfig, ckernel, run_cyclesim
from repro.cyclesim.plan import cycle_plan_for
from repro.cyclesim.simulator_reference import (
    run_cyclesim as run_reference,
)
from repro.trace.annotate import manual_annotation
from repro.trace.builder import TraceBuilder

pytestmark = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason="no C compiler for the cyclesim kernel",
)

#: In-order loads and branches without the serializing drain.
A_NON_SERIALIZING = IssueConfig(
    "A-ns", LoadPolicy.IN_ORDER, BranchPolicy.IN_ORDER,
    SerializePolicy.NON_SERIALIZING,
)


def _config(letter="C", penalty=300, **overrides):
    return CycleSimConfig.from_machine(
        MachineConfig.named(f"64{letter}"), miss_penalty=penalty,
        **overrides,
    )


def _assert_matches_reference(annotated, configs, length, name):
    """One kernel batch of *configs* over the first *length* measured
    instructions equals the reference, config by config."""
    stop = min(annotated.measure_start + length, len(annotated.trace))
    pairs = [(f"cfg{k}", config) for k, config in enumerate(configs)]
    batch = ckernel.run_cycle_plan(
        cycle_plan_for(annotated, None, stop), pairs, name)
    for label, config in pairs:
        want = run_reference(annotated, config, stop=stop, workload=name)
        assert dataclasses.asdict(batch[label]) == \
            dataclasses.asdict(want), (name, config)


def test_issue_configs_a_to_e_and_non_serializing(all_annotated):
    configs = [_config(letter) for letter in "ABCDE"]
    configs.append(_config(issue=A_NON_SERIALIZING))
    for name, annotated in all_annotated.items():
        _assert_matches_reference(annotated, configs, 6000, name)


def test_zero_latencies_wake_inside_the_scan(all_annotated):
    """A result ready in the cycle it issues wakes its consumer later in
    the same pass."""
    configs = [
        _config(letter, **{field: 0})
        for letter in "AC"
        for field in ("alu_latency", "branch_latency", "l1_latency")
    ]
    configs.append(_config("A", alu_latency=0, branch_latency=0,
                           l1_latency=0))
    for name, annotated in all_annotated.items():
        _assert_matches_reference(annotated, configs, 6000, name)


def test_narrow_issue_and_tiny_windows(all_annotated):
    configs = [_config(letter, issue_width=1) for letter in "AB"]
    configs += [
        _config(letter, issue_window=window, rob=rob, fetch_buffer=window)
        for letter in "AC"
        for window, rob in ((1, 1), (1, 4), (2, 3), (4, 4))
    ]
    for name, annotated in all_annotated.items():
        _assert_matches_reference(annotated, configs, 3000, name)


def test_cycle_by_cycle_clock(all_annotated):
    configs = [_config(letter, penalty=200, event_skip=False)
               for letter in "ABE"]
    for name, annotated in all_annotated.items():
        _assert_matches_reference(annotated, configs, 2500, name)


def _prefetch_stretch():
    """A missing load and a prefetch that waits on it, loads and stores
    right behind them, a stretch of independent prefetches several
    windows long, then more loads and stores.  Under config A the
    waiting prefetch holds back the loads and stores behind it, and the
    stretch issues, and commits, with no load or store in between."""
    b = TraceBuilder("prefetch-stretch")
    b.add_load(0x100, dst=2, addr=0x8000, src1=1)  # misses
    b.add_prefetch(0x104, addr=0x9000, src1=2)  # waits on the miss
    pc = 0x108
    for block, count in ((0x20000, 8), (None, 300), (0x40000, 40)):
        for k in range(count):
            if block is None:
                b.add_prefetch(pc, addr=0x10000 + 0x40 * k, src1=1)
                pc += 4
                continue
            b.add_load(pc, dst=3 + k % 4, addr=block + 0x40 * k, src1=1)
            b.add_store(pc + 4, addr=block + 0x8000 + 0x40 * k,
                        data_src=3, src1=1)
            pc += 8
    trace = b.build()
    return manual_annotation(
        trace, dmiss_at=[0, 4, len(trace) - 2],
        pmiss_at=list(range(1, 320, 7)),
        useless_prefetches=list(range(8, 320, 14)),
    )


@pytest.mark.parametrize("letter", "AC")
@pytest.mark.parametrize("window", (4, 16, 64))
def test_prefetch_only_stretch(letter, window):
    annotated = _prefetch_stretch()
    config = _config(letter, penalty=400, issue_window=window, rob=window)
    fast = run_cyclesim(annotated, config)
    want = run_reference(annotated, config)
    assert dataclasses.asdict(fast) == dataclasses.asdict(want)


@pytest.mark.parametrize("route", ("kernel", "reference"))
def test_perfect_l2_ignores_the_miss_penalty(database_annotated, route):
    """A perfect-L2 config reads no miss penalty, which is why
    ``experiments.common.get_cyclesim`` keys it without one."""
    run = run_cyclesim if route == "kernel" else run_reference
    stop = min(database_annotated.measure_start + 6000,
               len(database_annotated.trace))
    low, high = (
        run(database_annotated, _config(penalty=penalty, perfect_l2=True),
            stop=stop)
        for penalty in (200, 1000)
    )
    assert dataclasses.asdict(low) == dataclasses.asdict(high)
    assert low.cycles > 0
