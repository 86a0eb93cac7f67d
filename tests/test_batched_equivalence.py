"""The compiled MLPsim kernel vs. the frozen reference interpreter.

A sweep (:func:`repro.analysis.sweep.sweep`) replaces N oracle replays
with one compiled-kernel pass per event-mask group over a shared
columnar plan, and :func:`repro.core.mlpsim.simulate` runs a single
config through the same kernel.  Both are only
admissible if every result is **bit-identical** to
``mlpsim_reference.simulate_reference``, the frozen oracle, across the
paper's whole grid axis: window sizes x issue policies A-E x perfect-*
switches, plus the structure-limit families (MSHRs, store buffer, slow
branch predictor, value prediction).

Both routes are pinned: the suite runs once against the compiled kernel
and once with the kernel forcibly disabled, where every config must
reach the oracles without touching a kernel-only path.
"""

import dataclasses
import sys
import threading

import pytest

import repro.cbuild as cbuild
import repro.core.ckernel as ckernel
from repro.analysis.sweep import sweep
from repro.cli import _parse_machine
from repro.core.ckernel import batched_supported
from repro.core.columnar import plan_for
from repro.core.config import MachineConfig
from repro.core.mlpsim import simulate
from repro.core.mlpsim_reference import simulate_reference
from repro.robustness.errors import InternalError

#: The paper's grid axis: every window size crossed with every Table 2
#: issue policy.
FULL_GRID = [
    f"{window}{policy}"
    for window in (16, 32, 64, 128, 256, 512)
    for policy in "ABCDE"
]

#: Every perfect-* switch combination on the default window.
PERFECT_GRID = [
    ("64C" + "".join(tag for tag, on in
                     zip(("-pi", "-pb", "-pv"), combo) if on),
     dict(zip(("perfect_ifetch", "perfect_branch", "perfect_value"),
              combo)))
    for combo in [(i, b, v) for i in (False, True)
                  for b in (False, True) for v in (False, True)]
    if any(combo)
]

#: Structure-limit and predictor families the kernel special-cases.
LIMIT_GRID = [
    ("64C-mshr4", {"max_outstanding": 4}),
    ("64C-mshr1", {"max_outstanding": 1}),
    ("64A-sb2", {"store_buffer": 2}),
    ("64B-sb1", {"store_buffer": 1}),
    ("64C-vp", {"value_prediction": True}),
    ("64D-slowbp", {"slow_branch_predictor": True,
                    "slow_bp_accuracy": 0.9}),
    ("64E-slowbp", {"slow_branch_predictor": True,
                    "slow_bp_accuracy": 0.5}),
]


def _result_fields(result):
    fields = dataclasses.asdict(result)
    fields["inhibitors"] = result.inhibitors.as_dict()
    return fields


def _machine(label, overrides=None):
    base = label.split("-")[0]
    return MachineConfig.named(base, **(overrides or {}))


def _in_process(annotated, grid, workload):
    """``{label: MLPResult}`` of *grid*, swept in this process."""
    return sweep(annotated, grid, workload=workload, jobs=1).results


class TestFullGridKernel:
    def test_window_policy_grid_bit_identical(self, specjbb_annotated):
        """All 30 window x policy configs, one batch vs. the oracle."""
        grid = [(label, _machine(label)) for label in FULL_GRID]
        batch = _in_process(specjbb_annotated, grid, "specjbb2000")
        assert list(batch) == [label for label, _ in grid]
        for label, machine in grid:
            oracle = simulate_reference(
                specjbb_annotated, machine, workload="specjbb2000"
            )
            assert _result_fields(batch[label]) == \
                _result_fields(oracle), label

    def test_perfect_switches_bit_identical(self, database_annotated):
        grid = [(label, _machine("64C", overrides))
                for label, overrides in PERFECT_GRID]
        batch = _in_process(database_annotated, grid, "database")
        for label, machine in grid:
            oracle = simulate_reference(database_annotated, machine,
                                        workload="database")
            assert _result_fields(batch[label]) == \
                _result_fields(oracle), label

    def test_structure_limits_bit_identical(self, specweb_annotated):
        grid = [(label, _machine(label, overrides))
                for label, overrides in LIMIT_GRID]
        batch = _in_process(specweb_annotated, grid, "specweb99")
        for label, machine in grid:
            oracle = simulate_reference(specweb_annotated, machine,
                                        workload="specweb99")
            assert _result_fields(batch[label]) == \
                _result_fields(oracle), label

    def test_cross_workload_spot_checks(self, all_annotated):
        for label in ("16A", "64C", "256E", "64B"):
            machine = _machine(label)
            for name, annotated in all_annotated.items():
                fast = simulate(annotated, machine, workload=name)
                oracle = simulate_reference(annotated, machine,
                                            workload=name)
                assert _result_fields(fast) == _result_fields(oracle), \
                    (name, label)


#: Machine specs :func:`simulate` is checked on, one config per call.
SIMULATE_SPECS = (
    "16A",
    "64A",
    "64B",
    "64C",
    "64D",
    "64E",
    "256E",
    "64C:store_buffer=2",
    "64C:max_outstanding=4",
    "64D:slow_branch_predictor=true",
    "64C:value_prediction=true",
    "64C:perfect_branch=true",
    "64C:perfect_ifetch=true",
    "64C:perfect_value=true",
)


@pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason="without the kernel simulate runs the oracle itself",
)
class TestSimulateRoute:
    """One :func:`simulate` call runs one config on the kernel."""

    @pytest.mark.parametrize("spec", SIMULATE_SPECS)
    def test_results_bit_identical(self, all_annotated, spec):
        """Every MLPResult field matches the oracle on every workload."""
        machine = _parse_machine(spec)
        for name, annotated in all_annotated.items():
            fast = simulate(annotated, machine)
            oracle = simulate_reference(annotated, machine)
            assert _result_fields(fast) == _result_fields(oracle), \
                (name, spec)

    def test_subregion_results_identical(self, database_annotated):
        """Explicit (start, stop) windows agree with the oracle too."""
        machine = _parse_machine("64C")
        start = database_annotated.measure_start
        for stop in (start + 5_000, start + 20_000):
            fast = simulate(database_annotated, machine, start=start,
                            stop=stop)
            oracle = simulate_reference(database_annotated, machine,
                                        start=start, stop=stop)
            assert _result_fields(fast) == _result_fields(oracle), stop

    def test_repeated_runs_are_stable(self, specweb_annotated):
        """Runs share the memoised plan; none may leak state into it."""
        machine = _parse_machine("64C")
        first = simulate(specweb_annotated, machine)
        second = simulate(specweb_annotated, machine)
        assert _result_fields(first) == _result_fields(second)

    def test_zero_store_buffer_parity(self, database_annotated):
        """``store_buffer=0`` can never retire a missing store; the
        kernel must fail exactly like the oracle (same error, same
        instruction) rather than silently diverge."""
        machine = _parse_machine("64C:store_buffer=0")
        with pytest.raises(InternalError) as fast:
            simulate(database_annotated, machine)
        with pytest.raises(InternalError) as oracle:
            simulate_reference(database_annotated, machine)
        assert str(fast.value) == str(oracle.value)
        assert "made no progress" in str(fast.value)

    def test_one_kernel_call_per_simulate(self, specweb_annotated,
                                          monkeypatch):
        """With the kernel, ``simulate`` is one ``run_plan`` call;
        ``record_sets`` runs never reach the kernel."""
        calls = []
        real = ckernel.run_plan

        def counting(plan, pairs, workload):
            calls.append([label for label, _ in pairs])
            return real(plan, pairs, workload)

        monkeypatch.setattr(ckernel, "run_plan", counting)
        for machine in (MachineConfig.named("64C"),
                        MachineConfig.runahead_machine()):
            calls.clear()
            simulate(specweb_annotated, machine)
            assert len(calls) == 1 and len(calls[0]) == 1, machine.label
            calls.clear()
            result = simulate(specweb_annotated, machine, record_sets=True)
            assert calls == [], machine.label
            assert result.epoch_records


def _thread_grid():
    """27 configs of one mask group: seven runahead machines interleaved
    with the first out-of-order ones, so slices mix both scans."""
    ooo = [(f"{window}{policy}", MachineConfig.named(f"{window}{policy}"))
           for window in (32, 64, 128, 256) for policy in "ABCDE"]
    rae = [(f"RAE({distance})",
            MachineConfig.runahead_machine(max_runahead=distance))
           for distance in (64, 128, 256, 512, 1024, 2048)]
    rae.append(("RAE/mshr16",
                MachineConfig.runahead_machine(max_outstanding=16)))
    mixed = [pair for both in zip(ooo, rae) for pair in both]
    return mixed + ooo[len(rae):]


@pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason="the threaded driver needs the compiled kernel",
)
class TestThreadedDriver:
    """``run_plan`` cuts a batch into one kernel call per usable CPU.

    The CPU count is forced through :func:`repro.cbuild.effective_cpus`,
    so these tests do not depend on the host.
    """

    @staticmethod
    def _run(monkeypatch, threads, plan, grid):
        monkeypatch.setattr(cbuild, "effective_cpus", lambda: threads)
        return ckernel.run_plan(plan, grid, "specjbb2000")

    @pytest.mark.parametrize("size", (1, 2, 27))
    def test_slices_bit_identical_in_label_order(self, specjbb_annotated,
                                                 monkeypatch, size):
        grid = _thread_grid()[:size]
        plan = plan_for(specjbb_annotated, grid[0][1])
        want = [(label, _result_fields(result)) for label, result
                in self._run(monkeypatch, 1, plan, grid).items()]
        assert [label for label, _ in want] == [label for label, _ in grid]
        # Switch threads as often as possible: a result written to the
        # wrong index, or lost, breaks the equality.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (2, 3, 64):
                got = self._run(monkeypatch, threads, plan, grid)
                assert [(label, _result_fields(result))
                        for label, result in got.items()] == want, threads
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", (1, 2))
    def test_results_do_not_depend_on_batch_order(self, all_annotated,
                                                  monkeypatch, threads):
        """The configs of one kernel call share its scratch, and the
        out-of-order scan resets a result slot only when fetch reaches
        it.  Whatever ran before a config in its call, forward,
        reversed or nothing, its result is the same."""
        grid = _thread_grid() + [
            (label, _machine(label, overrides))
            for label, overrides in LIMIT_GRID
            if "value_prediction" not in overrides  # another mask group
        ]
        monkeypatch.setattr(cbuild, "effective_cpus", lambda: threads)
        for name, annotated in all_annotated.items():
            plan = plan_for(annotated, grid[0][1])
            forward = {label: _result_fields(result) for label, result
                       in ckernel.run_plan(plan, grid, name).items()}
            reverse = ckernel.run_plan(plan, grid[::-1], name)
            for label, _ in grid:
                assert _result_fields(reverse[label]) == forward[label], \
                    (name, label)
            for pair in grid[::4]:
                alone = ckernel.run_plan(plan, [pair], name)
                assert _result_fields(alone[pair[0]]) == forward[pair[0]], \
                    (name, pair[0])

    @pytest.mark.parametrize("threads", (2, 3, 64))
    def test_failure_in_last_slice_raises_like_one_thread(
            self, specjbb_annotated, monkeypatch, threads):
        """A config that makes no progress, last in the grid, raises the
        one-thread run's error once every slice is done, and leaves no
        helper thread behind."""
        grid = _thread_grid()[:26] + [
            ("64C:sb0", _parse_machine("64C:store_buffer=0")),
        ]
        plan = plan_for(specjbb_annotated, grid[0][1])
        with pytest.raises(InternalError) as one:
            self._run(monkeypatch, 1, plan, grid)
        before = threading.active_count()
        with pytest.raises(InternalError) as sliced:
            self._run(monkeypatch, threads, plan, grid)
        assert str(sliced.value) == str(one.value)
        assert "made no progress" in str(one.value)
        assert threading.active_count() == before


class TestNoKernelFallback:
    """Without a compiler every config must still match the oracle."""

    def test_grid_bit_identical_without_kernel(self, specjbb_annotated,
                                               no_kernel):
        assert not ckernel.kernel_available()
        labels = [f"{w}{p}" for w in (16, 64, 256) for p in "ABCDE"]
        grid = [(label, _machine(label)) for label in labels]
        batch = _in_process(specjbb_annotated, grid, "specjbb2000")
        for label, machine in grid:
            oracle = simulate_reference(specjbb_annotated, machine,
                                        workload="specjbb2000")
            assert _result_fields(batch[label]) == \
                _result_fields(oracle), label

    def test_value_prediction_delegates_cleanly(self, specjbb_annotated,
                                                no_kernel):
        """Without the kernel the oracle takes over and the result
        still matches it bit for bit."""
        machine = MachineConfig.named("64C", value_prediction=True)
        assert not batched_supported(machine)
        fast = simulate(specjbb_annotated, machine, workload="specjbb2000")
        oracle = simulate_reference(specjbb_annotated, machine,
                                    workload="specjbb2000")
        assert _result_fields(fast) == _result_fields(oracle)

    def test_kernel_vs_fallback_same_results(self, database_annotated,
                                             request):
        """Both routes agree with each other, not just with the oracle
        (guards against the suite accidentally testing one route twice).
        """
        if not ckernel.kernel_available():
            pytest.skip(f"no compiled kernel: {ckernel.kernel_error()}")
        grid = [(label, _machine(label)) for label in ("32A", "64C", "128E")]
        with_kernel = _in_process(database_annotated, grid, "database")
        request.getfixturevalue("no_kernel")
        without = _in_process(database_annotated, grid, "database")
        for label, _ in grid:
            assert _result_fields(with_kernel[label]) == \
                _result_fields(without[label]), label

    def test_parallel_sweep_without_kernel(self, specweb_annotated,
                                           no_kernel, monkeypatch):
        """``sweep(jobs=2)`` takes the scalar route, never the plan path."""
        import repro.analysis.parallel as parallel

        monkeypatch.setattr(parallel, "effective_cpus", lambda: 2)
        grid = [(label, _machine(label))
                for label in ("32A", "64C", "128E", "64D")]
        swept = sweep(specweb_annotated, grid, workload="specweb99",
                      jobs=2)
        assert list(swept.results) == [label for label, _ in grid]
        for label, machine in grid:
            oracle = simulate_reference(specweb_annotated, machine,
                                        workload="specweb99")
            assert _result_fields(swept.results[label]) == \
                _result_fields(oracle), label


class TestEngineSelection:
    def test_runahead_inside_batched_envelope(self):
        """Runahead machines run on the kernel whenever it is built;
        only ``record_sets`` runs stay outside."""
        machine = MachineConfig.named("64C", runahead=True)
        assert batched_supported(machine) == ckernel.kernel_available()
        assert not batched_supported(machine, record_sets=True)

    def test_record_sets_rejected(self):
        assert not batched_supported(MachineConfig.named("64C"),
                                     record_sets=True)

    def test_unrepresentable_field_takes_the_oracle_route(
            self, database_annotated):
        """A field no ``int64`` can hold must not wrap into the
        contract: a ROB of 2**64 + 64 would read 64 in the kernel's
        struct, pass every range check and simulate another machine."""
        machine = MachineConfig.named("64C", rob=2**64 + 64)
        assert not batched_supported(machine)
        assert _result_fields(simulate(database_annotated, machine)) == \
            _result_fields(simulate_reference(database_annotated, machine))
        if ckernel.kernel_available():
            plan = plan_for(database_annotated, machine)
            with pytest.raises(InternalError, match="does not fit"):
                ckernel.run_plan(plan, [("big", machine)], "database")

    def test_sweep_engine_parity(self, specweb_annotated):
        """``sweep(engine=...)`` routes are label-for-label identical."""
        grid = [(label, _machine(label)) for label in ("64A", "64C", "64E")]
        scalar = sweep(specweb_annotated, grid, engine="scalar")
        batched = sweep(specweb_annotated, grid, engine="batched")
        auto = sweep(specweb_annotated, grid, engine="auto")
        for label, _ in grid:
            want = _result_fields(scalar.results[label])
            assert _result_fields(batched.results[label]) == want, label
            assert _result_fields(auto.results[label]) == want, label

    def test_unknown_engine_rejected(self, specweb_annotated):
        from repro.robustness.errors import ConfigError

        with pytest.raises(ConfigError):
            sweep(specweb_annotated, [("64C", _machine("64C"))],
                  engine="gpu")
