"""Serial/parallel sweep equivalence and the process-pool backend.

The contract of ``sweep(..., jobs=N)`` is that parallelism is purely an
execution detail: results, label order, and progress callbacks must be
indistinguishable from the serial backend, and a failing worker must
surface as a :class:`SimulationError` naming the configuration label
that failed.
"""

import dataclasses

import pytest

import repro.analysis.parallel as parallel
from repro.analysis.parallel import resolve_jobs
from repro.analysis.sweep import sweep
from repro.core.config import MachineConfig
from repro.robustness.errors import ConfigError, SimulationError

GRID_SPECS = ("16A", "64A", "64C", "64E", "128C")


def _grid():
    return [(spec, MachineConfig.named(spec)) for spec in GRID_SPECS]


def _result_fields(result):
    """Every MLPResult field, with inhibitor counts expanded."""
    fields = dataclasses.asdict(result)
    fields["inhibitors"] = result.inhibitors.as_dict()
    return fields


class TestSerialParallelEquivalence:
    def test_identical_results_across_workloads(self, all_annotated):
        """jobs=4 must match jobs=1 label-for-label on all workloads."""
        for name, annotated in all_annotated.items():
            serial = sweep(annotated, _grid(), jobs=1)
            parallel_run = sweep(annotated, _grid(), jobs=4)
            assert parallel_run.labels() == serial.labels(), name
            for label in serial.labels():
                assert _result_fields(parallel_run.results[label]) == \
                    _result_fields(serial.results[label]), (name, label)

    def test_progress_preserves_grid_order(self, specjbb_annotated):
        seen = []
        result = sweep(specjbb_annotated, _grid(), jobs=4,
                       progress=seen.append)
        assert seen == list(GRID_SPECS)
        assert result.labels() == list(GRID_SPECS)

    def test_runahead_config_in_parallel_grid(self, database_annotated,
                                              monkeypatch):
        """A runahead machine mid-grid joins its mask group's kernel
        chunks and matches the oracles."""
        from repro.core.mlpsim import simulate_oracle

        monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
        grid = _grid()
        grid.insert(2, ("64D-ra", MachineConfig.named("64D", runahead=True)))
        swept = sweep(database_annotated, grid, jobs=2)
        assert swept.labels() == [label for label, _ in grid]
        for label, machine in grid:
            assert _result_fields(swept.results[label]) == \
                _result_fields(simulate_oracle(database_annotated,
                                               machine)), label

    def test_env_var_selects_parallel_backend(self, specjbb_annotated,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        via_env = sweep(specjbb_annotated, _grid())
        serial = sweep(specjbb_annotated, _grid(), jobs=1)
        for label in serial.labels():
            assert _result_fields(via_env.results[label]) == \
                _result_fields(serial.results[label])


class _ExplodingMachine:
    """A picklable stand-in that breaks inside the worker.

    It survives the submit-side pickle but has none of the attributes
    ``simulate`` needs, so the failure happens in the worker process —
    exactly the path the label-carrying error wrapper must cover.
    """

    runahead = False


class TestWorkerFailure:
    def test_error_names_failing_label(self, specjbb_annotated):
        grid = _grid()[:2] + [("broken-config", _ExplodingMachine())] \
            + _grid()[2:]
        with pytest.raises(SimulationError) as excinfo:
            sweep(specjbb_annotated, grid, jobs=4)
        assert "broken-config" in str(excinfo.value)
        assert excinfo.value.field == "broken-config"
        # Failure diagnostics carry the attempt count and elapsed time,
        # so a one-line message places the failure in a long campaign.
        assert "attempt 1" in str(excinfo.value)
        assert "after " in str(excinfo.value)

    @pytest.mark.parametrize("supervise", [None, True])
    def test_exhibit_deadline_is_not_a_config_failure(
            self, specjbb_annotated, monkeypatch, supervise):
        """An exhibit's deadline expiring mid-sweep ends the sweep as
        itself; it is neither wrapped nor retried as a chunk failure."""
        import repro.robustness.supervisor as supervisor
        from repro.robustness.errors import ExhibitTimeout

        def expired(*args):
            raise ExhibitTimeout("exhibit exceeded its budget", field="x")

        monkeypatch.setattr(supervisor, "_run_chunk", expired)
        with pytest.raises(ExhibitTimeout):
            sweep(specjbb_annotated, _grid(), jobs=1, supervise=supervise)

    def test_spawn_spill_path(self, specjbb_annotated, monkeypatch):
        """Forkless platforms spill the trace to a .npz the workers
        load; the results must still match serial (regression: the
        spill used to call save_annotated with swapped arguments).
        Scalar-route configs are what an unsupervised pool runs."""
        import multiprocessing

        real_get_context = multiprocessing.get_context
        asked = []

        def no_fork(method=None):
            asked.append(method)
            if method == "fork":
                # Mimics multiprocessing's own missing-start-method error.
                raise ValueError("cannot find context for 'fork'")  # reprolint: disable=error-hierarchy
            return real_get_context(method)

        monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
        monkeypatch.setattr(
            parallel.multiprocessing, "get_context", no_fork
        )
        grid = _grid()[:2]
        serial = sweep(specjbb_annotated, grid, jobs=1)
        spawned = sweep(specjbb_annotated, grid, jobs=2, engine="scalar")
        assert asked == ["fork", "spawn"]
        for label in serial.labels():
            assert _result_fields(spawned.results[label]) == \
                _result_fields(serial.results[label])

    def test_serial_fallback_when_no_pool(self, specjbb_annotated,
                                          monkeypatch):
        """If no pool can be created the sweep silently runs serially."""
        asked = []

        def no_context(annotated):
            asked.append(annotated)
            return None, None

        monkeypatch.setattr(parallel, "effective_cpus", lambda: 4)
        monkeypatch.setattr(parallel, "share_annotated", no_context)
        serial = sweep(specjbb_annotated, _grid(), jobs=1)
        fallback = sweep(specjbb_annotated, _grid(), jobs=4,
                         engine="scalar")
        assert len(asked) == 1  # the jobs=4 sweep tried for a pool
        for label in serial.labels():
            assert _result_fields(fallback.results[label]) == \
                _result_fields(serial.results[label])


def _forbid(monkeypatch, module, name):
    """Make ``module.name`` fail the test if anything calls it."""
    def forbidden(*args, **kwargs):
        pytest.fail(f"{module.__name__}.{name} was called")

    monkeypatch.setattr(module, name, forbidden)


class TestUnsupervisedRouting:
    """An unsupervised sweep runs its kernel chunks in-process whatever
    ``jobs`` says; only scalar-route configs may go to the pool."""

    def test_kernel_grid_stays_in_process(self, specjbb_annotated,
                                          monkeypatch):
        import repro.analysis.shm as shm
        from repro.core import ckernel

        if not ckernel.kernel_available():
            pytest.skip(f"no compiled kernel: {ckernel.kernel_error()}")
        monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
        serial = sweep(specjbb_annotated, _grid(), jobs=1)
        _forbid(monkeypatch, parallel, "share_annotated")
        _forbid(monkeypatch, shm, "publish_plan")
        seen = []
        pooled = sweep(specjbb_annotated, _grid(), jobs=2,
                       progress=seen.append)
        assert seen == list(GRID_SPECS)
        assert pooled.labels() == serial.labels()
        for label in serial.labels():
            assert _result_fields(pooled.results[label]) == \
                _result_fields(serial.results[label]), label

    def test_mixed_grid_pools_only_scalar_configs(self, specjbb_annotated,
                                                  monkeypatch):
        """Machines outside the kernel contract take the scalar route;
        they alone reach the pool, which forks only once the in-process
        kernel chunks (and their helper threads) are done."""
        import threading

        import repro.analysis.shm as shm
        import repro.robustness.supervisor as supervisor
        from repro.core.ckernel import batched_supported
        from repro.core.mlpsim import simulate_oracle

        grid = _grid()
        grid.insert(1, ("64C-rob2^25",
                        MachineConfig.named("64C", rob=1 << 25)))
        grid.append(("128C-rob2^25",
                     MachineConfig.named("128C", rob=1 << 25)))
        scalar = [label for label, machine in grid
                  if not batched_supported(machine)]
        assert len(scalar) >= 2
        monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
        _forbid(monkeypatch, shm, "publish_plan")
        threads = set(threading.enumerate())
        pools = []
        real_drain_pool = supervisor._drain_pool

        def recording_drain_pool(annotated, tasks, state, *args):
            pools.append((
                [task.label for task in tasks],
                all(task.finished for task in state.tasks
                    if task.route is not None),
                set(threading.enumerate()) <= threads,
            ))
            return real_drain_pool(annotated, tasks, state, *args)

        monkeypatch.setattr(supervisor, "_drain_pool", recording_drain_pool)
        seen = []
        swept = sweep(specjbb_annotated, grid, jobs=2, progress=seen.append)
        assert pools == [(scalar, True, True)]
        assert seen == [label for label, _ in grid]
        for label, machine in grid:
            assert _result_fields(swept.results[label]) == \
                _result_fields(simulate_oracle(specjbb_annotated,
                                               machine)), label


class TestSupervisedCyclesimPool:
    def test_publishes_one_cycle_plan_and_matches_reference(
            self, monkeypatch):
        """A supervised jobs=2 cyclesim grid runs on one published
        cycle plan, bit-identical to the frozen reference."""
        import repro.analysis.shm as shm
        from repro.analysis.sweep import sweep_cyclesim
        from repro.cyclesim import CycleSimConfig
        from repro.cyclesim import ckernel as cycle_ckernel
        from repro.cyclesim.simulator_reference import run_cyclesim
        from repro.trace.annotate import annotate
        from repro.workloads import generate_trace

        if not cycle_ckernel.kernel_available():
            pytest.skip(f"no cyclesim kernel: {cycle_ckernel.kernel_error()}")
        published = []
        real_publish = shm.publish_plan

        def recording_publish(plan):
            published.append(plan)
            return real_publish(plan)

        monkeypatch.setattr(shm, "publish_plan", recording_publish)
        annotated = annotate(generate_trace("database", 8_000))
        pairs = [
            (f"{size}{policy}", CycleSimConfig.from_machine(
                MachineConfig.named(f"{size}{policy}"), miss_penalty=200))
            for size in (32, 64) for policy in "AC"
        ]
        swept = sweep_cyclesim(annotated, pairs, workload="database",
                               jobs=2, supervise={"seed": 7})
        assert swept.complete
        assert len(published) == 1 and published[0].entry == "cyclesim_batch"
        assert swept.labels() == [label for label, _ in pairs]
        for label, config in pairs:
            oracle = run_cyclesim(annotated, config, workload="database")
            assert dataclasses.asdict(swept.results[label]) == \
                dataclasses.asdict(oracle), label


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(None) == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_empty_env_var_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert resolve_jobs() == 1

    def test_zero_means_cpu_count(self, monkeypatch):
        from repro.cbuild import effective_cpus

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == effective_cpus()

    def test_zero_honours_the_affinity_mask(self, monkeypatch):
        """``--jobs 0`` counts the CPUs this process may use: one under
        ``taskset -c 0`` on a four-CPU machine."""
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert resolve_jobs(0) == 1

    def test_junk_env_var_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError):
            resolve_jobs()

    def test_negative_raises(self):
        with pytest.raises(ConfigError):
            resolve_jobs(-2)

    def test_non_integer_raises(self):
        with pytest.raises(ConfigError):
            resolve_jobs(2.5)
        with pytest.raises(ConfigError):
            resolve_jobs(True)


class TestRelativeBaselineGuard:
    def test_zero_mlp_baseline_raises_with_label(self):
        """A degenerate baseline must raise, not map everything to 0."""
        from repro.analysis.sweep import SweepResult

        class _Zero:
            mlp = 0.0

        class _Fine:
            mlp = 2.0

        result = SweepResult(
            workload="synthetic",
            results={"dead-baseline": _Zero(), "ok": _Fine()},
        )
        with pytest.raises(SimulationError) as excinfo:
            result.relative("dead-baseline")
        assert "dead-baseline" in str(excinfo.value)

    def test_nonzero_baseline_still_works(self, specjbb_annotated):
        grid = {
            "base": MachineConfig.named("64C"),
            "big": MachineConfig.named("256C"),
        }
        rel = sweep(specjbb_annotated, grid).relative("base")
        assert rel["base"] == pytest.approx(1.0)
