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
import multiprocessing
import threading

import pytest

import repro.cbuild as cbuild
from repro.core.config import MachineConfig
from repro.cyclesim import CycleSimConfig, ckernel, run_cyclesim
from repro.cyclesim.ckernel import kernel_available, run_cycle_plan
from repro.cyclesim.plan import cycle_plan_for
from repro.cyclesim.simulator_reference import (
    run_cyclesim as run_cyclesim_reference,
)
from repro.robustness.errors import ConfigError, InternalError

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


def _outcome(run, annotated, config):
    """A run's metrics, or the message of the error it raised."""
    try:
        return _fields(run(annotated, config))
    except InternalError as error:
        return str(error)


@pytest.mark.skipif(
    not kernel_available(), reason="no C compiler for the cyclesim kernel"
)
def test_unrepresentable_field_is_refused(database_annotated):
    """A field no ``int64`` can hold is refused like any out-of-range
    one, not wrapped: a miss penalty of 2**64 + 200 would read 200.
    The kernel driver refuses a penalty of 2**40, which ``run_cyclesim``
    sends to the reference; the config itself refuses 2**64 + 200,
    past the reference's own horizon."""
    plan = cycle_plan_for(database_annotated)
    config = CycleSimConfig.from_machine(
        MachineConfig.named("64C"), miss_penalty=2**40)
    assert not ckernel.in_contract(config)
    with pytest.raises(InternalError, match="outside its contract"):
        run_cycle_plan(plan, [("big", config)], "database")
    assert _outcome(run_cyclesim, database_annotated, config) == \
        _outcome(run_cyclesim_reference, database_annotated, config)
    with pytest.raises(ConfigError, match="miss_penalty"):
        CycleSimConfig.from_machine(
            MachineConfig.named("64C"), miss_penalty=2**64 + 200)


def test_out_of_contract_config_runs_on_the_reference(database_annotated,
                                                      monkeypatch):
    """A valid config outside the kernel's contracted ranges (a ROB
    above 2**20) runs on the reference through both entry points,
    ``run_cyclesim`` and the sweep executor, instead of failing the
    kernel's contract check; the in-contract config beside it in the
    grid stays on the kernel route when the kernel is built."""
    from repro.analysis.sweep import sweep_cyclesim

    on_kernel = []
    real = ckernel.run_cycle_plan

    def recording(plan, pairs, workload):
        on_kernel.extend(label for label, _ in pairs)
        return real(plan, pairs, workload)

    monkeypatch.setattr(ckernel, "run_cycle_plan", recording)
    big = CycleSimConfig(rob=2**21)
    assert not ckernel.in_contract(big)
    assert ckernel.in_contract(CycleSimConfig())
    want = _fields(run_cyclesim_reference(database_annotated, big))
    assert _fields(run_cyclesim(database_annotated, big)) == want
    pairs = [("64C", CycleSimConfig()), ("rob2^21", big)]
    swept = sweep_cyclesim(database_annotated, pairs, jobs=1)
    assert _fields(swept.results["rob2^21"]) == want
    assert _fields(swept.results["64C"]) == _fields(
        run_cyclesim_reference(database_annotated, CycleSimConfig()))
    assert on_kernel == (["64C"] if kernel_available() else [])


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



def _table3_batch(annotated, size):
    """The first *size* Table 3 configs and the cycle plan they share."""
    stop = min(annotated.measure_start + REGION, len(annotated.trace))
    pairs = [(f"cfg{i}", config) for i, config in enumerate(_grid())]
    return cycle_plan_for(annotated, None, stop), pairs[:size]


def _recording_kernel(monkeypatch):
    """Wrap the bound kernel; returns the ``(thread, configs)`` of each
    call."""
    calls = []
    real = ckernel._loader.require()["cyclesim_batch"]

    def recording(*args):
        calls.append((threading.get_ident(), args[-2]))
        return real(*args)

    monkeypatch.setitem(ckernel._loader.functions, "cyclesim_batch",
                        recording)
    return calls


@pytest.mark.skipif(
    not kernel_available(), reason="no C compiler for the cyclesim kernel"
)
@pytest.mark.parametrize("size", (1, 2, 27))
def test_threaded_slices_bit_identical(database_annotated, monkeypatch,
                                       size):
    """Any thread count gives the one-thread results in label order
    (the CPU count is forced, so the host does not matter)."""
    plan, pairs = _table3_batch(database_annotated, size)
    monkeypatch.setattr(cbuild, "effective_cpus", lambda: 1)
    want = [(label, _fields(metrics)) for label, metrics
            in run_cycle_plan(plan, pairs, "database").items()]
    assert [label for label, _ in want] == [label for label, _ in pairs]
    for threads in (2, 3, 64):
        monkeypatch.setattr(cbuild, "effective_cpus",
                            lambda threads=threads: threads)
        got = run_cycle_plan(plan, pairs, "database")
        assert [(label, _fields(metrics))
                for label, metrics in got.items()] == want, threads


@pytest.mark.skipif(
    not kernel_available(), reason="no C compiler for the cyclesim kernel"
)
def test_two_cpus_split_a_batch_across_two_threads(database_annotated,
                                                   monkeypatch):
    """With two usable CPUs one 27-config batch is two kernel calls,
    made from two threads."""
    plan, pairs = _table3_batch(database_annotated, 27)
    calls = _recording_kernel(monkeypatch)
    monkeypatch.setattr(cbuild, "effective_cpus", lambda: 2)
    run_cycle_plan(plan, pairs, "database")
    assert sorted(configs for _, configs in calls) == [13, 14]
    assert len({thread for thread, _ in calls}) == 2


@pytest.mark.skipif(
    not kernel_available(), reason="no C compiler for the cyclesim kernel"
)
def test_pool_worker_runs_a_chunk_as_one_call(database_annotated,
                                              monkeypatch):
    """The pool already runs one process per job, so a worker runs each
    chunk as one kernel call on its own thread, whatever the CPUs."""
    import repro.analysis.parallel as parallel
    from repro.analysis.shm import publish_plan, unpublish_plan
    from repro.robustness.supervisor import _worker_main

    plan, pairs = _table3_batch(database_annotated, 9)
    calls = _recording_kernel(monkeypatch)
    monkeypatch.setattr(cbuild, "effective_cpus", lambda: 4)
    # The worker pins the process it runs in; restore it afterwards.
    monkeypatch.setattr(cbuild, "_pinned", False)
    monkeypatch.setattr(parallel, "_WORKER_ANNOTATED", database_annotated)
    parent, worker = multiprocessing.Pipe()
    handle = publish_plan(plan)
    try:
        parent.send((handle, [(label, config, 1) for label, config in pairs]))
        parent.send(None)
        _worker_main(worker, None, "", "database")
        ok, results, _ = parent.recv()
    finally:
        unpublish_plan(handle)
        parent.close()
        worker.close()
    assert ok, results
    assert list(results) == [label for label, _ in pairs]
    assert calls == [(threading.get_ident(), len(pairs))]


@pytest.mark.skipif(
    not kernel_available(), reason="no C compiler for the cyclesim kernel"
)
@pytest.mark.parametrize("slow", ("calling", "helper"))
def test_deadline_inside_a_threaded_batch(database_annotated, monkeypatch,
                                          slow):
    """A SIGALRM deadline that expires during a threaded batch, while the
    calling thread runs its own slice or while it waits for a helper,
    raises once every helper is joined, and the calling thread gets its
    CPU mask back."""
    import os
    import time

    from repro.robustness.supervisor import wall_clock_deadline

    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity mask on this platform")

    class Expired(Exception):
        pass

    real = ckernel._loader.require()["cyclesim_batch"]
    calling = threading.get_ident()

    def slow_kernel(*args):
        status = real(*args)
        if (threading.get_ident() == calling) == (slow == "calling"):
            time.sleep(0.5)  # the deadline expires in here
        return status

    monkeypatch.setitem(ckernel._loader.functions, "cyclesim_batch",
                        slow_kernel)
    monkeypatch.setattr(cbuild, "effective_cpus", lambda: 2)
    plan, pairs = _table3_batch(database_annotated, 4)
    threads, mask = threading.active_count(), os.sched_getaffinity(0)
    with pytest.raises(Expired):
        with wall_clock_deadline(0.1, Expired):
            run_cycle_plan(plan, pairs, "database")
    assert threading.active_count() == threads
    assert os.sched_getaffinity(0) == mask
