"""Compiled cycle simulator vs. the frozen reference simulator.

``repro.cyclesim.simulator`` runs a compiled batch kernel over
precomputed per-instruction tables; ``repro.cyclesim.simulator_reference``
is the verbatim pre-optimization simulator kept as the correctness
oracle, SHA-pinned in the reprolint manifest.  The kernel must be
behaviour-preserving: full :class:`CycleMetrics` equality — cycles,
access counters, MLP integrals and the whole CPI stack — across the
paper's validation grid (Table 3: ROB {32,64,128} x policies A-C x
latencies {200,500,1000}) on every workload.  Without a compiler,
``run_cyclesim`` and ``sweep_cyclesim`` fall back to the reference,
and that route is pinned here too.
"""

import dataclasses

import pytest

from repro.core.config import MachineConfig
from repro.cyclesim import CycleSimConfig, run_cyclesim
from repro.cyclesim.ckernel import kernel_available, run_cycle_plan
from repro.cyclesim.plan import cycle_plan_for
from repro.cyclesim.simulator_reference import (
    run_cyclesim as run_cyclesim_reference,
)

#: Instructions per equivalence run: long enough to exercise deep MSHR
#: merging, redirects and serializing drains on every workload, short
#: enough that 81 reference runs stay test-suite friendly.
REGION = 30000

SIZES = (32, 64, 128)
POLICIES = "ABC"
LATENCIES = (200, 500, 1000)


def _grid():
    for size in SIZES:
        for letter in POLICIES:
            for latency in LATENCIES:
                yield CycleSimConfig.from_machine(
                    MachineConfig.named(f"{size}{letter}"),
                    miss_penalty=latency,
                )


def _fields(metrics):
    return dataclasses.asdict(metrics)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("letter", POLICIES)
def test_grid_bit_identical_interpreter(all_annotated, size, letter,
                                       no_kernel):
    """Without the kernel the full Table 3 grid matches the oracle."""
    machine = MachineConfig.named(f"{size}{letter}")
    for latency in LATENCIES:
        config = CycleSimConfig.from_machine(machine, miss_penalty=latency)
        for name, annotated in all_annotated.items():
            stop = min(annotated.measure_start + REGION,
                       len(annotated.trace))
            fast = run_cyclesim(annotated, config, stop=stop)
            oracle = run_cyclesim_reference(annotated, config, stop=stop)
            assert _fields(fast) == _fields(oracle), (name, size, letter,
                                                      latency)


@pytest.mark.skipif(
    not kernel_available(), reason="no C compiler for the cyclesim kernel"
)
def test_grid_bit_identical_kernel(all_annotated):
    """The compiled batch kernel matches the oracle on the full grid."""
    pairs = [(f"cfg{i}", config) for i, config in enumerate(_grid())]
    for name, annotated in all_annotated.items():
        stop = min(annotated.measure_start + REGION,
                   len(annotated.trace))
        plan = cycle_plan_for(annotated, None, stop)
        batch = run_cycle_plan(plan, pairs, name)
        for label, config in pairs:
            oracle = run_cyclesim_reference(
                annotated, config, stop=stop, workload=name
            )
            assert _fields(batch[label]) == _fields(oracle), (name, label)


def test_perfect_l2_and_event_skip_tiers(database_annotated, request):
    """The off-grid knobs (perfect L2, cycle-by-cycle clock) match too,
    with the kernel and then without it."""
    stop = min(database_annotated.measure_start + 8000,
               len(database_annotated.trace))
    machine = MachineConfig.named("64C")
    configs = [
        CycleSimConfig.from_machine(machine, miss_penalty=500, **overrides)
        for overrides in (
            {"perfect_l2": True},
            {"event_skip": False},
            {"perfect_l2": True, "event_skip": False},
        )
    ]
    oracles = [
        run_cyclesim_reference(database_annotated, config, stop=stop)
        for config in configs
    ]
    for route in ("kernel", "no kernel"):
        if route == "no kernel":
            request.getfixturevalue("no_kernel")
        for config, oracle in zip(configs, oracles):
            fast = run_cyclesim(database_annotated, config, stop=stop)
            assert _fields(fast) == _fields(oracle), (config, route)


def test_parallel_sweep_without_kernel(database_annotated, no_kernel,
                                       monkeypatch):
    """``sweep_cyclesim(jobs=2)`` without a kernel runs the reference
    and never enters the shared-memory plan path."""
    import repro.analysis.parallel as parallel
    from repro.analysis.sweep import sweep_cyclesim

    monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
    pairs = [
        (f"{size}C", CycleSimConfig.from_machine(
            MachineConfig.named(f"{size}C"), miss_penalty=200))
        for size in (32, 64)
    ]
    swept = sweep_cyclesim(database_annotated, pairs, workload="database",
                           jobs=2)
    assert list(swept.results) == [label for label, _ in pairs]
    for label, config in pairs:
        oracle = run_cyclesim_reference(database_annotated, config,
                                        workload="database")
        assert _fields(swept.results[label]) == _fields(oracle), label


def test_labels_match_reference(database_annotated):
    """Metric labels (config rendering) survive the rewrite unchanged."""
    stop = min(database_annotated.measure_start + 4000,
               len(database_annotated.trace))
    config = CycleSimConfig.from_machine(
        MachineConfig.named("32A"), miss_penalty=200, perfect_l2=True
    )
    fast = run_cyclesim(database_annotated, config, stop=stop)
    oracle = run_cyclesim_reference(database_annotated, config, stop=stop)
    assert fast.label == oracle.label
    assert fast.workload == oracle.workload

